"""Points-to graphs, escape summaries, and lifetime-annotation checks.

Each method gets one flow-insensitive exit graph.  Nodes are allocation
sites (solid), parameters and field loads (dotted).  A call, and the
constructor a `new` runs, inline the callee's pruned summary by one rule,
read from the statement (`_Builder.apply_call`): parameter nodes map to
argument nodes, allocation sites keep their identity, load nodes replay
their field chain in the caller.  A method's body is walked until a walk
leaves `PointsToGraph.size()` unchanged: L, N, E and the returned set
only ever grow, so an equal size means no new fact, and the walk that
changes nothing collects the method's tagged nodes and records each call
or constructor statement with what its callee's tags map to there, for
the lifetime checker, which reads each `new` from the body.  The
statement is the site's only record.  Only
recursive components iterate from empty summaries to a fixpoint, reached
once no summary changes.  Any other method is built once, as its
callees' summaries are already final; the recursive components are
reported to `check`.

The work follows the new facts.  A summary stores its inline order, its
edges and returned nodes sorted once.  A walk reuses the last inline at
a site when the callee's summary is the same object, holds no load node,
and the frozen copy of the argument sets equals the new ones: such an
inline reads nothing else, so it would add only facts already there.
Each finished graph's edges are grouped by source once; pruning to the
summary and every lifetime reach query search that one successor map,
which is dropped once the graph's component is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from . import callgraph
from .frontend.syntax import (
    Assign,
    CallStmt,
    ClassDecl,
    Expr,
    FieldRef,
    IndexRef,
    LocalDecl,
    MethodDecl,
    NewStmt,
    OutArg,
    ParenExpr,
    PathExpr,
    Program,
    ReturnStmt,
    Stmt,
    Tag,
    ThisRef,
    VarRef,
    callee_of,
    iter_stmts,
)

ARRAY_FIELD = "[*]"
LOAD_DEPTH_CAP = 3

OK = "Ok"
TAG_MISMATCH = "TagMismatch"
ESCAPES_UNANNOTATED = "EscapesButUnannotated"
ANNOTATED_CAPTURED = "AnnotatedButCaptured"
SUPPRESSED = "SuppressedByDestLocal"

# The root names of the result and the receiver, as their tags are named.
_RETURN_TAG, _THIS_TAG = Tag.ret().name, Tag.this().name


class UnknownTag(Exception):
    pass


class PTGNode(NamedTuple):
    """A value: its hash and equality are the tuple's, run in C."""
    kind: str  # inside | param | load
    key: str
    base: "PTGNode | None" = None  # load nodes only
    field: str | None = None
    depth: int = 0

    def sort_key(self):
        return (self.kind, self.depth, self.key)


def inside_node(site: str) -> PTGNode:
    return PTGNode("inside", site)


def param_node(name: str) -> PTGNode:
    return PTGNode("param", name)


class PointsToGraph:
    """L/N/E plus the returned set; mutated only while building."""

    def __init__(self):
        self.L: dict[str, set[PTGNode]] = {}
        self.N: set[PTGNode] = set()
        self.E: set[tuple[PTGNode, str, PTGNode]] = set()
        self.returned: set[PTGNode] = set()
        # populated by the builder's last walk: the nodes a `dest_esc` site
        # or an `add_esc` pull puts under each tag, and each call or
        # constructor with what its callee's tags map to here
        self.tagged: dict[Tag, set[PTGNode]] = {}
        self.call_records: list[tuple[NewStmt | CallStmt, dict[Tag, set[PTGNode]]]] = []

    def add_node(self, n: PTGNode) -> None:
        self.N.add(n)

    def add_edge(self, a: PTGNode, f: str, b: PTGNode) -> None:
        self.N.add(a)
        self.N.add(b)
        self.E.add((a, f, b))

    def bind(self, var: str, nodes: set[PTGNode]) -> None:
        self.N |= nodes
        self.L.setdefault(var, set()).update(nodes)

    def size(self) -> tuple[int, int, int, int]:
        """Grows with every new fact: L, N, E and returned only ever grow."""
        return (len(self.N), len(self.E), len(self.returned),
                sum(len(ns) for ns in self.L.values()))

    def var_set(self, var: str) -> set[PTGNode]:
        return self.L.get(var, set())

    def targets(self, n: PTGNode, f: str) -> set[PTGNode]:
        return {b for (a, g, b) in self.E if a == n and g == f}

    def load(self, bases: set[PTGNode], f: str) -> set[PTGNode]:
        """Field read: existing targets, else a fresh collapsed load node."""
        out: set[PTGNode] = set()
        for b in bases:
            tgts = self.targets(b, f)
            if tgts:
                out |= tgts
            elif b.depth >= LOAD_DEPTH_CAP:
                # x = x.next style chains: fold back onto the base
                self.add_edge(b, f, b)
                out.add(b)
            else:
                ln = PTGNode("load", f"{b.key}.{f}", base=b, field=f, depth=b.depth + 1)
                self.add_edge(b, f, ln)
                out.add(ln)
        return out

    def reach_from(self, start: set[PTGNode]) -> set[PTGNode]:
        """`start` plus every node reachable from it over any field."""
        return _reach(successors(self), start)

    def canonical(self) -> dict:
        return {
            "L": {v: sorted(n.key for n in ns) for v, ns in sorted(self.L.items()) if ns},
            "N": sorted(n.key for n in self.N),
            "E": sorted((a.key, f, b.key) for (a, f, b) in self.E),
            "returned": sorted(n.key for n in self.returned),
        }


Successors = dict[PTGNode, list[PTGNode]]


def successors(g: PointsToGraph) -> Successors:
    """E grouped by source: built once per finished graph and dropped once
    its method is checked, never kept on the graph."""
    succ: Successors = {}
    for (a, _, b) in g.E:
        succ.setdefault(a, []).append(b)
    return succ


def _reach(succ: Successors, start: set[PTGNode]) -> set[PTGNode]:
    seen = set(start)
    work = list(start)
    while work:
        for b in succ.get(work.pop(), ()):
            if b not in seen:
                seen.add(b)
                work.append(b)
    return seen


def reachable(ptg: PointsToGraph, from_nodes: set[PTGNode], target: PTGNode) -> bool:
    return target in ptg.reach_from(from_nodes)


@dataclass
class EscapeSummary:
    method: str
    ptg: PointsToGraph  # pruned exit graph
    out_sets: dict[str, set[PTGNode]]
    tagged: dict[Tag, set[PTGNode]]
    # the order `inline` replays the edges and the returned nodes in: a
    # load node reads the caller's graph as it stands, so which edge comes
    # first decides whether a load finds a target or makes a new node
    edge_order: list[tuple[PTGNode, str, PTGNode]]
    returned_order: list[PTGNode]
    loads: bool  # holds a load node, so an inline reads the caller's graph


@dataclass(frozen=True)
class LifetimeVerdict:
    method: str
    where: str  # allocation site or call site
    kind: str
    tag: str | None = None
    note: str = ""

    def to_json(self) -> dict:
        out = {"method": self.method, "where": self.where, "kind": self.kind}
        if self.tag:
            out["tag"] = self.tag
        if self.note:
            out["note"] = self.note
        return out


def _ref_params(method: MethodDecl, class_map: dict[str, ClassDecl]) -> list[str]:
    names = ["this"]
    for p in method.params:
        if p.decl_type.name in class_map and not p.is_out:
            names.append(p.name)
    return names


class _Builder:
    def __init__(self, method: MethodDecl, summaries: dict[str, EscapeSummary],
                 class_map: dict[str, ClassDecl]):
        self.m = method
        self.summaries = summaries
        self.class_map = class_map
        self.g = PointsToGraph()
        for name in _ref_params(method, class_map):
            self.g.bind(name, {param_node(name)})
        # per call or `new` site: the summary inlined there, a frozen copy
        # of its arguments, and what the inline gave
        self.inlined: dict[str, tuple] = {}

    # -- expression nodes -----------------------------------------------------

    def nodes_of(self, e: Expr | None) -> set[PTGNode]:
        if e is None:
            return set()
        if isinstance(e, ParenExpr):
            return self.nodes_of(e.inner)
        if isinstance(e, VarRef):
            return self.g.var_set(e.name)
        if isinstance(e, ThisRef):
            return self.g.var_set("this")
        if isinstance(e, FieldRef):
            return self.g.load(self.nodes_of(e.base), e.field)
        if isinstance(e, IndexRef):
            return self.g.load(self.nodes_of(e.base), ARRAY_FIELD)
        return set()  # literals, arithmetic, null: never references

    def store(self, target: Expr | None, values: set[PTGNode]) -> None:
        if isinstance(target, VarRef):
            self.g.bind(target.name, values)
        elif isinstance(target, FieldRef):
            for a in self.nodes_of(target.base):
                for b in values:
                    self.g.add_edge(a, target.field, b)
        elif isinstance(target, IndexRef):
            for a in self.nodes_of(target.base):
                for b in values:
                    self.g.add_edge(a, ARRAY_FIELD, b)

    # -- summary inlining -------------------------------------------------------

    def mapped(self, argmap: dict[str, set[PTGNode]], memo: dict[PTGNode, set[PTGNode]],
               n: PTGNode) -> set[PTGNode]:
        """The nodes of this graph that summary node n stands for at a call
        with `argmap`; `memo` holds those already mapped."""
        if n in memo:
            return memo[n]
        if n.kind == "param":
            out = set(argmap.get(n.key, set()))
        elif n.kind == "inside":
            self.g.add_node(n)
            out = {n}
        else:  # load: replay the field access on the mapped base
            memo[n] = set()  # cut cycles from the cap's self-edges
            out = self.g.load(self.mapped(argmap, memo, n.base), n.field)
        memo[n] = out
        return out

    def inline(self, summary: EscapeSummary, argmap: dict[str, set[PTGNode]]):
        # a method, not a closure that calls itself: that closure would be a
        # reference cycle holding this builder, and through it the program,
        # until the cycle collector ran
        mu = partial(self.mapped, argmap, {})
        for (a, f, b) in summary.edge_order:
            for ma in mu(a):
                for mb in mu(b):
                    self.g.add_edge(ma, f, mb)
        returned = set()
        for n in summary.returned_order:
            returned |= mu(n)
        outs = {p: set().union(*(mu(n) for n in ns)) if ns else set()
                for p, ns in summary.out_sets.items()}
        tagged = {t: set().union(*(mu(n) for n in ns)) if ns else set()
                  for t, ns in summary.tagged.items()}
        return returned, outs, tagged

    def apply_call(self, s: NewStmt | CallStmt, this_nodes: set[PTGNode]) -> None:
        """Inline the summary of the method a call, or the constructor a
        `new`, runs on `this_nodes`; a constructor returns nothing, so a
        `new`'s target keeps just its node."""
        callee = callee_of(s)
        summary = self.summaries.get(callee.qname)
        if summary is None:
            return  # empty bootstrap summary: no effect this round
        argmap: dict[str, set[PTGNode]] = {"this": this_nodes}
        for p, a in zip(callee.params, s.args):
            if not isinstance(a, OutArg) and p.decl_type.name in self.class_map:
                argmap[p.name] = self.nodes_of(a)
        # without load nodes an inline reads only the summary and the
        # arguments, so with both unchanged it would add no fact
        last = self.inlined.get(s.site)
        if last is not None and last[0] is summary and not summary.loads \
                and last[1] == argmap:
            returned, outs, tagged = last[2]
        else:
            returned, outs, tagged = self.inline(summary, argmap)
            # the argument sets are the live L sets: copy them
            frozen = {p: frozenset(ns) for p, ns in argmap.items()}
            self.inlined[s.site] = (summary, frozen, (returned, outs, tagged))
        self.store(s.target, returned)
        for p, a in zip(callee.params, s.args):
            if isinstance(a, OutArg):
                self.store(a.target, outs.get(p.name, set()))
        self.g.call_records.append((s, tagged))
        for dst, src in s.add_esc:
            if tagged.get(src):
                self.g.tagged.setdefault(dst, set()).update(tagged[src])

    # -- statement interpretation ----------------------------------------------

    def walk(self, body: list[Stmt]) -> None:
        # flow-insensitive: both arms of an `if` and every loop body apply
        for s in iter_stmts(body):
            self.stmt(s)

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, LocalDecl):
            if s.init is not None:
                self.g.bind(s.name, self.nodes_of(s.init))
        elif isinstance(s, Assign):
            self.store(s.target, self.nodes_of(s.value))
        elif isinstance(s, NewStmt):
            node = inside_node(s.site)
            self.g.add_node(node)
            self.store(s.target, {node})
            if s.dest_esc is not None:
                self.g.tagged.setdefault(s.dest_esc, set()).add(node)
            if callee_of(s) is not None:
                self.apply_call(s, {node})
        elif isinstance(s, CallStmt):
            self.apply_call(s, self.g.var_set("this") if s.receiver is None
                            else self.nodes_of(s.receiver))
        elif isinstance(s, ReturnStmt):
            self.g.returned |= self.nodes_of(s.value)
        # counter updates, control flow, contract statements and annotations
        # carry no heap effect

    def run(self) -> PointsToGraph:
        # a walk that adds no fact leaves size() unchanged and saw the final
        # graph throughout, so its records and tags are the method's
        while True:
            self.g.call_records = []
            self.g.tagged = {}
            before = self.g.size()
            self.walk(self.m.body)
            if self.g.size() == before:
                return self.g


def build_ptg(method: MethodDecl, summaries: dict[str, EscapeSummary],
              class_map: dict[str, ClassDecl]) -> PointsToGraph:
    return _Builder(method, summaries, class_map).run()


def _root_sets(g: PointsToGraph, method: MethodDecl,
               class_map: dict[str, ClassDecl]) -> dict[str, set[PTGNode]]:
    roots: dict[str, set[PTGNode]] = {}
    for name in _ref_params(method, class_map):
        roots[_THIS_TAG if name == "this" else f"Param({name})"] = {param_node(name)}
    for p in method.params:
        if p.is_out and p.decl_type.name in class_map:
            roots[f"Param({p.name})"] = set(g.var_set(p.name))
    roots[_RETURN_TAG] = set(g.returned)
    return roots


def _tag_root(g: PointsToGraph, method: MethodDecl, tag: Tag,
              bindings: dict[Tag, PathExpr]) -> set[PTGNode]:
    if tag.kind == "return":
        return set(g.returned)
    if tag.kind == "this":
        return {param_node("this")}
    path = bindings.get(tag)
    if path is None:
        raise UnknownTag(str(tag))
    if path.root == "return":
        cur = set(g.returned)
    elif path.root == "this":
        cur = {param_node("this")}
    else:
        cur = set(g.var_set(path.root))
    for f in path.fields:
        nxt: set[PTGNode] = set()
        for n in cur:
            nxt |= g.targets(n, f)
        cur = nxt
    return cur


def check_lifetimes(method: MethodDecl, ptg: PointsToGraph,
                    class_map: dict[str, ClassDecl],
                    succ: Successors) -> list[LifetimeVerdict]:
    """`succ` is `successors(ptg)`."""
    contract = method.contract
    reach = {r: _reach(succ, ns)
             for r, ns in _root_sets(ptg, method, class_map).items()}
    escaped: set[PTGNode] = set().union(*reach.values())
    tag_reach: dict[Tag, set[PTGNode]] = {}

    def roots_reaching(n: PTGNode) -> list[str]:
        return sorted(r for r, ns in reach.items() if n in ns)

    def reach_of(tag: Tag) -> set[PTGNode]:
        if tag not in tag_reach:
            tag_reach[tag] = _reach(succ, _tag_root(ptg, method, tag, contract.bindings))
        return tag_reach[tag]

    out: list[LifetimeVerdict] = []
    for s in [t for t in iter_stmts(method.body) if isinstance(t, NewStmt)]:
        node = inside_node(s.site)
        if s.dest_local:
            out.append(LifetimeVerdict(method.qname, s.site, SUPPRESSED))
            continue
        if s.dest_esc is None:
            if node in escaped:
                out.append(LifetimeVerdict(
                    method.qname, s.site, ESCAPES_UNANNOTATED,
                    note=f"reachable from {', '.join(roots_reaching(node))}"))
            else:
                out.append(LifetimeVerdict(method.qname, s.site, OK))
            continue
        tag = s.dest_esc
        if node not in escaped:
            out.append(LifetimeVerdict(
                method.qname, s.site, ANNOTATED_CAPTURED, tag=str(tag),
                note="annotated as escaping but unreachable from every root"))
            continue
        if node in reach_of(tag):
            out.append(LifetimeVerdict(method.qname, s.site, OK, tag=str(tag)))
        else:
            out.append(LifetimeVerdict(
                method.qname, s.site, TAG_MISMATCH, tag=str(tag),
                note=f"actually reachable from {', '.join(roots_reaching(node))}"))

    for s, mapped in ptg.call_records:
        callee = callee_of(s).qname
        covered = {src for (_, src) in s.add_esc}
        for dst, src in s.add_esc:
            pulled = mapped.get(src, set())
            if not pulled:
                out.append(LifetimeVerdict(
                    method.qname, s.site, OK, tag=str(dst),
                    note=f"callee has no objects under tag {src}"))
                continue
            if pulled <= reach_of(dst):
                out.append(LifetimeVerdict(method.qname, s.site, OK, tag=str(dst)))
            else:
                out.append(LifetimeVerdict(
                    method.qname, s.site, TAG_MISMATCH, tag=str(dst),
                    note=f"objects from {callee} tag {src} do not reach {dst}"))
        for src, pulled in sorted(mapped.items(), key=lambda kv: str(kv[0])):
            if src in covered or not pulled:
                continue
            leaking = sorted(n.key for n in pulled if n in escaped)
            if leaking:
                out.append(LifetimeVerdict(
                    method.qname, s.site, ESCAPES_UNANNOTATED, tag=str(src),
                    note=f"callee {callee} objects ({', '.join(leaking)}) stay "
                         f"reachable but no add_esc claims them"))
    return out


def summarize_ptg(method: MethodDecl, g: PointsToGraph,
                  class_map: dict[str, ClassDecl], succ: Successors) -> EscapeSummary:
    """Prune to what callers can observe; `succ` is `successors(g)`."""
    roots = _root_sets(g, method, class_map)
    out_sets = {p.name: set(g.var_set(p.name))
                for p in method.params
                if p.is_out and p.decl_type.name in class_map}
    keep = _reach(succ, set().union(*roots.values(), *g.tagged.values()))

    # keep is closed under E, so an edge from it also ends in it
    pruned = PointsToGraph()
    pruned.N = keep
    pruned.E = {e for e in g.E if e[0] in keep}
    pruned.returned = g.returned & keep

    return EscapeSummary(
        method=method.qname,
        ptg=pruned,
        out_sets={p: ns & keep for p, ns in out_sets.items()},
        tagged={t: ns & keep for t, ns in g.tagged.items()},
        edge_order=sorted(pruned.E, key=lambda e: (e[0].sort_key(), e[1], e[2].sort_key())),
        returned_order=sorted(pruned.returned, key=PTGNode.sort_key),
        loads=any(n.kind == "load" for n in keep),
    )


@dataclass
class EscapeAnalysis:
    summaries: dict[str, EscapeSummary]
    graphs: dict[str, PointsToGraph]
    lifetimes: dict[str, list[LifetimeVerdict]]
    recursive: list[list[str]]  # the recursive components, callees first


def analyze(program: Program) -> EscapeAnalysis:
    class_map = program.class_map()
    methods = {m.qname: m for m in program.methods()}
    summaries: dict[str, EscapeSummary] = {}
    graphs: dict[str, PointsToGraph] = {}
    edges = callgraph.call_edges(program)
    recursive: list[list[str]] = []
    checked: dict[str, list[LifetimeVerdict]] = {}

    for comp in callgraph.sccs(program):
        cyclic = callgraph.is_recursive(comp, edges)
        if cyclic:
            recursive.append(comp)
        while True:
            stable = True
            succs: dict[str, Successors] = {}
            for qname in comp:
                m = methods[qname]
                g = build_ptg(m, summaries, class_map)
                succs[qname] = successors(g)
                new = summarize_ptg(m, g, class_map, succs[qname])
                old = summaries.get(qname)
                if old is None or _facts(old) != _facts(new):
                    stable = False
                summaries[qname] = new
                graphs[qname] = g
            if stable or not cyclic:
                break
        # the component's graphs are final: check them while their
        # successor maps are at hand, then let the maps go
        for qname in comp:
            checked[qname] = check_lifetimes(methods[qname], graphs[qname], class_map,
                                             succs[qname])

    lifetimes = {q: checked[q] for q in methods}
    return EscapeAnalysis(summaries, graphs, lifetimes, recursive)


def _facts(s: EscapeSummary):
    """What a fixpoint round compares; nodes compare by value."""
    return s.ptg.E, s.ptg.N, s.ptg.returned, s.out_sets, s.tagged


# --- DOT export ---------------------------------------------------------------

def site_id_map(program: Program) -> dict[str, int]:
    """Each allocation site's number in the DOT export: 1, 2, ... in
    program order, the order the resolver names the sites in."""
    sites = [s.site for m in program.methods() for s in iter_stmts(m.body)
             if isinstance(s, NewStmt)]
    return {site: i for i, site in enumerate(sites, 1)}


def to_dot(name: str, g: PointsToGraph, site_ids: dict[str, int]) -> str:
    nodes = sorted(g.N, key=PTGNode.sort_key)
    load_ids: dict[PTGNode, int] = {}
    for n in nodes:
        if n.kind == "load":
            load_ids[n] = len(load_ids) + 1

    def nid(n: PTGNode) -> str:
        if n.kind == "inside":
            return f"n{site_ids.get(n.key, 0)}"
        if n.kind == "param":
            return f"p_{n.key}"
        return f"l{load_ids[n]}"

    lines = [f'digraph "{name}" {{']
    for n in nodes:
        style = "solid" if n.kind == "inside" else "dashed"
        marker = " peripheries=2" if n in g.returned else ""
        lines.append(f'  {nid(n)} [shape=ellipse style={style} label="{n.key}"{marker}];')
    for (a, f, b) in sorted(g.E, key=lambda e: (nid(e[0]), e[1], nid(e[2]))):
        lines.append(f'  {nid(a)} -> {nid(b)} [label="{f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
