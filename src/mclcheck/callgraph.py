"""Call graph over resolved programs, with SCCs in bottom-up order.

Constructor invocations count as calls: a `new C(...)` statement runs
`C.C`, so the ctor's contract takes part in composition exactly like a
named callee.  Both kinds of target come from `frontend.callee_of`, and
bodies are walked with `frontend.iter_stmts`, the single home of each.
"""

from __future__ import annotations

from .frontend.syntax import Program, Stmt, callee_of, iter_stmts


def callees(body: list[Stmt]) -> list[str]:
    """Callee qnames in syntactic order, duplicates preserved."""
    return [c.qname for c in map(callee_of, iter_stmts(body)) if c is not None]


def call_edges(program: Program) -> dict[str, list[str]]:
    return {m.qname: list(dict.fromkeys(callees(m.body)))
            for m in program.methods()}


def sccs(program: Program) -> list[list[str]]:
    """Tarjan components, emitted callees-first (safe bottom-up order).

    Iterative, so call chains of any length fit in the Python stack; each
    work-list entry is a method and the iterator over its pending callees.
    """
    edges = call_edges(program)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    work: list = []

    def visit(v: str) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(edges.get(v, ()))))

    for root in (m.qname for m in program.methods()):
        if root in index:
            continue
        visit(root)
        while work:
            v, pending = work[-1]
            for w in pending:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(sorted(comp))
    return out


def is_recursive(component: list[str], edges: dict[str, list[str]]) -> bool:
    if len(component) > 1:
        return True
    v = component[0]
    return v in edges.get(v, ())
