"""Heap-shape analysis: graph construction, summaries, lifetime verdicts."""

import pathlib
import random

import pytest

from helpers import (
    call_nest_program,
    closure,
    load_chain,
    reference_analysis,
    relay_chain,
)
from mclcheck import escape
from mclcheck.escape import (
    ANNOTATED_CAPTURED,
    ESCAPES_UNANNOTATED,
    OK,
    PointsToGraph,
    PTGNode,
    SUPPRESSED,
    TAG_MISMATCH,
    analyze,
    inside_node,
    param_node,
    reachable,
    site_id_map,
    to_dot,
)
from mclcheck.frontend import load
from mclcheck.frontend.syntax import PathExpr, Tag

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def load_corpus(name):
    return load((CORPUS / f"{name}.mcl").read_text(), f"{name}.mcl")


def kinds(an, qname):
    return [v.kind for v in an.lifetimes[qname]]


# ----------------------------------------------------------------- shapes


def test_ctor_temporary_is_not_reachable_from_receiver():
    an = analyze(load_corpus("family"))
    g = an.graphs["Person.Person"]
    logger = inside_node("Person.Person#1")
    assert logger in g.N
    assert not reachable(g, {param_node("this")}, logger)
    assert not g.returned


def test_added_member_reachable_from_receiver():
    an = analyze(load_corpus("family"))
    g = an.graphs["Family.AddMember"]
    person = inside_node("Family.AddMember#1")
    assert reachable(g, {param_node("this")}, person)
    # and the path runs through the members array
    mid = g.targets(param_node("this"), "_members")
    assert mid and any(person in g.targets(n, "[*]") for n in mid)


def test_node_reachable_from_itself():
    an = analyze(load_corpus("family"))
    g = an.graphs["Person.Person"]
    logger = inside_node("Person.Person#1")
    assert reachable(g, {logger}, logger)


def test_empty_body_has_only_param_nodes():
    prog = load(
        """
        class C {
            C() { }
            void nop(C other, int n) { }
        }
        """,
        "t.mcl",
    )
    g = analyze(prog).graphs["C.nop"]
    assert {n.kind for n in g.N} == {"param"}
    assert {n.key for n in g.N} == {"this", "other"}
    assert not g.E


def test_captured_temporary_pruned_from_summary():
    an = analyze(load_corpus("family"))
    s = an.summaries["Person.Person"]
    assert inside_node("Person.Person#1") not in s.ptg.N
    # unannotated and reachable from no root
    assert [(v.where, v.kind) for v in an.lifetimes["Person.Person"]] == \
        [("Person.Person#1", OK)]


def test_summary_keeps_escaping_objects():
    an = analyze(load_corpus("family"))
    s = an.summaries["Family.AddMember"]
    person = inside_node("Family.AddMember#1")
    assert person in s.ptg.N
    assert reachable(s.ptg, {param_node("this")}, person)
    assert [(v.where, v.kind, v.tag) for v in an.lifetimes["Family.AddMember"]] == \
        [("Family.AddMember#1", OK, "This")]


def test_inlined_callee_objects_escape_through_caller():
    an = analyze(load_corpus("family"))
    g = an.graphs["Family.CreateFamily"]
    person = inside_node("Family.AddMember#1")
    arr = inside_node("Family.Family#1")
    assert reachable(g, g.returned, arr)
    assert reachable(g, g.returned, person)


def test_self_loop_field_chain_terminates():
    prog = load(
        """
        class Link {
            Link next;

            Link() { }

            Link walk(Link start) {
                memreq<Link>(0);

                Link cur = start;
                for (i = 1 .. 10) {
                    cur = cur.next;
                }
                return cur;
            }
        }
        """,
        "t.mcl",
    )
    g = analyze(prog).graphs["Link.walk"]
    # load chain is cut off at the collapse depth with a self edge
    assert any(a == b and f == "next" for (a, f, b) in g.E)
    assert all(n.depth <= escape.LOAD_DEPTH_CAP for n in g.N)


def test_mutual_recursion_reaches_fixpoint():
    an = analyze(load_corpus("zigzag"))
    for q, s in an.summaries.items():
        assert s.method == q
    # every allocation in the cycle escapes via the returned chain
    for q in an.lifetimes:
        assert all(v.kind == OK for v in an.lifetimes[q])


def test_analysis_is_deterministic():
    a = analyze(load_corpus("bigfamily"))
    b = analyze(load_corpus("bigfamily"))
    for q in a.graphs:
        assert a.graphs[q].canonical() == b.graphs[q].canonical()


def test_analysis_summaries_are_deterministic():
    a = analyze(load_corpus("bigfamily"))
    b = analyze(load_corpus("bigfamily"))
    assert a.summaries.keys() == b.summaries.keys()
    for q in a.summaries:
        assert escape._facts(a.summaries[q]) == escape._facts(b.summaries[q])


# ------------------------------------------------------------ reachability


def random_graph(rng):
    nodes = [inside_node(f"C.m#{i}") for i in range(rng.randint(1, 4))]
    nodes += [param_node(p) for p in ("this", "a", "b")[:rng.randint(1, 3)]]
    for i in range(rng.randint(0, 4)):
        base = rng.choice(nodes)
        nodes.append(PTGNode("load", f"{base.key}.f{i}", base=base, field=f"f{i}",
                             depth=base.depth + 1))
    g = PointsToGraph()
    for n in nodes:
        g.add_node(n)
    for _ in range(rng.randint(0, 3 * len(nodes))):
        # self-edges and back-edges come up as often as any other pair
        g.add_edge(rng.choice(nodes), rng.choice(("next", "link", "[*]")),
                   rng.choice(nodes))
    return g, nodes


def test_reach_from_and_targets_match_the_edge_set_definitions():
    rng = random.Random(7)
    for _ in range(300):
        g, nodes = random_graph(rng)
        start = set(rng.sample(nodes, rng.randint(0, len(nodes))))
        assert g.reach_from(start) == closure(g, start)
        for n in nodes:
            assert reachable(g, {n}, n)
            for f in ("next", "link", "[*]"):
                assert g.targets(n, f) == {b for (a, h, b) in g.E if a == n and h == f}


class CountingSet(set):
    """A set that counts the Python-level scans of it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def old_load(g, bases, f):
    """`PointsToGraph.load` as it was: one scan of E per base."""
    out = set()
    for b in bases:
        tgts = {t for (a, h, t) in g.E if a == b and h == f}
        if tgts:
            out |= tgts
        elif b.depth >= escape.LOAD_DEPTH_CAP:
            g.add_edge(b, f, b)
            out.add(b)
        else:
            ln = PTGNode("load", f"{b.key}.{f}", base=b, field=f, depth=b.depth + 1)
            g.add_edge(b, f, ln)
            out.add(ln)
    return out


def copy_graph(g, edges=set):
    h = PointsToGraph()
    h.N, h.E = set(g.N), edges(g.E)
    return h


def test_a_load_from_a_wide_base_set_scans_the_edges_once():
    rng = random.Random(11)
    for _ in range(100):
        g, nodes = random_graph(rng)
        nodes += [param_node(f"q{i}") for i in range(30)]
        for n in nodes[-30:]:
            if rng.random() < 0.5:
                g.add_edge(n, "next", rng.choice(nodes))
        bases = set(rng.sample(nodes, rng.randint(15, len(nodes))))
        new, old = copy_graph(g, CountingSet), copy_graph(g)
        assert new.load(bases, "next") == old_load(old, bases, "next")
        assert (new.N, new.E) == (old.N, old.E)
        assert new.E.scans == 1


def test_a_bound_path_scans_the_edges_once_per_field():
    rng = random.Random(13)
    tag = Tag.user("T")
    bindings = {tag: PathExpr("this", ("next", "link"))}
    for _ in range(100):
        g, nodes = random_graph(rng)
        for n in rng.sample(nodes, rng.randint(0, len(nodes))):
            g.add_edge(param_node("this"), "next", n)
        cur = {param_node("this")}
        for f in ("next", "link"):
            cur = {b for n in cur for b in g.targets(n, f)}
        counted = copy_graph(g, CountingSet)
        assert escape._path_root(counted, tag, bindings) == cur
        assert counted.E.scans <= 2  # none once the path leads nowhere


def count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def sites_under_one_tag(k):
    body = "\n".join(f"        dest_esc(return);\n        Box b{i} = new Box();\n"
                     + (f"        b{i}.next = b{i - 1};" if i else "")
                     for i in range(k))
    return load(f"""class Box {{
    Box next;
}}

class Maker {{
    Box make() {{
        memreq<Box>({k});
        esc<Box>(return, {k});

{body}
        return b{k - 1};
    }}
}}
""", "sites.mcl")


def test_reach_queries_do_not_grow_with_sites_under_one_tag(monkeypatch):
    counts = []
    for k in (1, 10):
        calls = count_calls(monkeypatch, escape, "_reach")
        an = analyze(sites_under_one_tag(k))
        monkeypatch.undo()
        assert kinds(an, "Maker.make") == [OK] * k
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# ------------------------------------------------------------ fixpoint rounds


def test_non_recursive_chain_builds_each_method_once(monkeypatch):
    calls = count_calls(monkeypatch, escape, "build_ptg")
    an = analyze(load(relay_chain(30), "relay.mcl"))
    assert sorted(m.qname for m, *_ in calls) == sorted(f"Relay.m{j}" for j in range(30))
    last = an.graphs["Relay.m29"]
    assert {n.key for n in last.reach_from(last.returned)} == {
        f"Relay.m{j}#1" for j in range(30)}


def walked(monkeypatch, prog):
    calls = count_calls(monkeypatch, escape._Builder, "walk")
    analyze(prog)
    return [builder.m.qname for builder, _ in calls]


def test_graph_complete_after_one_walk_is_walked_twice(monkeypatch):
    walks = walked(monkeypatch, load("""class A {
    A() { }
}

class P {
    A make() {
        A a = new A();
        return a;
    }
}
""", "t.mcl"))
    # the second walk adds nothing and records the sites; an empty body's
    # first walk already adds nothing
    assert walks.count("P.make") == 2
    assert walks.count("A.A") == 1


def test_a_walk_that_only_binds_a_variable_is_not_the_last(monkeypatch):
    prog = load("""class A {
    A next;

    A() { }
}

class P {
    void f(A z, int n) {
        requires(n >= 0);

        A x = null;
        A y = null;
        for (i = 1 .. n) {
            x.next = z;
            x = y;
            y = new A();
        }
    }
}
""", "t.mcl")
    walks = walked(monkeypatch, prog)
    # walk 1 adds the node, walk 2 only binds x to it, walk 3 the edge
    assert walks.count("P.f") == 4
    g = analyze(prog).graphs["P.f"]
    assert (inside_node("P.f#1"), "next", param_node("z")) in g.E


def test_chain_walks_each_method_twice(monkeypatch):
    assert len(walked(monkeypatch, load(relay_chain(120), "relay.mcl"))) == 240


def inlined(monkeypatch, prog):
    """The methods walked and the methods that inlined a summary, one entry
    per walk or inline, and the analysis."""
    walks = count_calls(monkeypatch, escape._Builder, "walk")
    inlines = count_calls(monkeypatch, escape._Builder, "inline")
    an = analyze(prog)
    return ([b.m.qname for b, *_ in walks], [b.m.qname for b, *_ in inlines], an)


@pytest.mark.parametrize("k", [30, 60])
def test_each_chain_call_is_inlined_once(monkeypatch, k):
    # the confirming walk reuses every inline: no chain summary has a load
    walks, inlines, _ = inlined(monkeypatch, load(relay_chain(k), "relay.mcl"))
    assert len(walks) == 2 * k
    assert sorted(inlines) == sorted(f"Relay.m{j}" for j in range(1, k))


def test_a_call_whose_argument_grew_is_inlined_again(monkeypatch):
    walks, inlines, an = inlined(monkeypatch, load("""class A {
}

class P {
    A held;

    void take(A a) {
        this.held = a;
    }

    void f(int n) {
        requires(n >= 0);

        A x = null;
        A y = null;
        for (i = 1 .. n) {
            x = y;
            y = new A();
            this.take(x);
        }
    }
}
""", "t.mcl"))
    # walk 1 passes x empty, walk 2 passes P.f#1 and adds the edge, walk 3
    # passes it again and reuses the inline
    assert walks.count("P.f") == 3
    assert inlines.count("P.f") == 2
    assert (param_node("this"), "held", inside_node("P.f#1")) in an.graphs["P.f"].E


def test_a_call_whose_summary_loads_is_inlined_on_every_walk(monkeypatch):
    walks, inlines, an = inlined(monkeypatch, load("""class A {
    A next;
}

class P {
    A second(A a) {
        A b = a.next;
        return b;
    }

    void f(A z) {
        A x = new A();
        A y = this.second(x);
        x.next = z;
    }
}
""", "t.mcl"))
    assert an.summaries["P.second"].loads
    # walk 2's load finds the edge to z that walk 1 stored after the call
    assert an.graphs["P.f"].canonical()["L"]["y"] == ["P.f#1.next", "z"]
    assert walks.count("P.f") == inlines.count("P.f") == 3


class Forgetful(dict):
    """An inline record that keeps nothing, so every walk inlines anew."""

    def __setitem__(self, key, value):
        pass


def test_reusing_inlines_changes_no_graph_summary_or_verdict(monkeypatch):
    progs = {name: load_corpus(name) for name in sorted(p.stem for p in CORPUS.glob("*.mcl"))}
    progs["relay"] = load(relay_chain(30), "relay.mcl")
    reused = {name: analyze(prog) for name, prog in progs.items()}

    real_init = escape._Builder.__init__

    def forgetting(self, *args):
        real_init(self, *args)
        self.inlined = Forgetful()

    monkeypatch.setattr(escape._Builder, "__init__", forgetting)
    _, inlines, _ = inlined(monkeypatch, progs["relay"])
    assert len(inlines) == 2 * 29  # every call on both walks
    for name, prog in progs.items():
        an, base = analyze(prog), reused[name]
        assert an.graphs.keys() == base.graphs.keys(), name
        for q, g in an.graphs.items():
            assert g.canonical() == base.graphs[q].canonical(), (name, q)
            assert escape._facts(an.summaries[q]) == escape._facts(base.summaries[q]), (name, q)
        assert an.lifetimes == base.lifetimes, name


def reference_programs():
    progs = {name: load_corpus(name) for name in sorted(p.stem for p in CORPUS.glob("*.mcl"))}
    for k in (20, 45):
        progs[f"relay{k}"] = load(relay_chain(k), "relay.mcl")
    progs["loads"] = load(load_chain(2 * escape.LOAD_DEPTH_CAP), "loads.mcl")
    # a tagged node that no root reaches, and what it holds
    progs["stray"] = load("""class A { A next; } class P {
        A f() { dest_esc(return); A a = new A(); A b = new A(); a.next = b;
                A c = new A(); return c; }
        A g() { add_esc(return, return); A x = this.f(); return x; } }""", "stray.mcl")
    rng = random.Random(5)
    for i in range(40):
        progs[f"nest{i}"] = load(call_nest_program(rng) % "0", "nest.mcl")
    return progs


def test_split_inlines_and_shared_reaches_match_the_reference():
    progs = reference_programs()
    walk = analyze(progs["loads"])
    assert {f"Walk.w{j}" for j in range(2 * escape.LOAD_DEPTH_CAP)} <= \
        {q for q, s in walk.summaries.items() if s.loads}
    assert max(n.depth for n in walk.graphs["Walk.top"].N) == escape.LOAD_DEPTH_CAP
    for name, prog in progs.items():
        an = analyze(prog)
        summaries, graphs, lifetimes = reference_analysis(prog)
        assert an.graphs.keys() == graphs.keys(), name
        for q, g in graphs.items():
            assert an.graphs[q].canonical() == g.canonical(), (name, q)
            assert escape._facts(an.summaries[q]) == escape._facts(summaries[q]), (name, q)
        assert an.lifetimes == lifetimes, name


def test_an_argument_left_empty_adds_nothing_its_parameter_reaches():
    an = analyze(load(load_chain(2), "loads.mcl"))
    stored = inside_node("Walk.put#1")
    assert not an.summaries["Walk.put"].loads
    assert stored in an.summaries["Walk.put"].mapped
    assert an.graphs["Walk.drop"].canonical() == {
        "L": {"this": ["this"]}, "N": ["this"], "E": [], "returned": []}


@pytest.mark.parametrize("k", [30, 60])
def test_chain_work_is_one_search_per_root_set_and_no_sort(monkeypatch, k):
    reaches = count_calls(monkeypatch, escape, "_reach")
    mapped = count_calls(monkeypatch, escape._Builder, "mapped")
    edge_keys = count_calls(monkeypatch, escape, "_edge_key")
    node_keys = count_calls(monkeypatch, PTGNode, "sort_key")
    an = analyze(load(relay_chain(k), "relay.mcl"))
    assert not any(s.loads for s in an.summaries.values())
    # two root sets per method, `This` and `Return`, and no tag bound to a path
    assert len(reaches) <= 3 * k
    assert not edge_keys and not node_keys
    assert not mapped  # no chain summary has an edge with a parameter end


def test_a_load_free_inline_maps_only_what_a_parameter_touches(monkeypatch):
    inlining, maps = [], []
    real_inline, real_mapped = escape._Builder.inline, escape._Builder.mapped

    def inline(self, summary, argmap):
        inlining.append(summary)
        try:
            return real_inline(self, summary, argmap)
        finally:
            inlining.pop()

    def mapped(self, argmap, memo, n):
        maps.append((inlining[-1], n))
        return real_mapped(self, argmap, memo, n)

    monkeypatch.setattr(escape._Builder, "inline", inline)
    monkeypatch.setattr(escape._Builder, "mapped", mapped)
    for prog in reference_programs().values():
        analyze(prog)
    free = [(s, n) for s, n in maps if not s.loads]
    assert free and any(s.loads for s, _ in maps)
    for s, n in free:
        assert all(a in s.mapped or b in s.mapped for (a, _, b) in s.replayed), s.method
        assert n in s.mapped.union(*((a, b) for (a, _, b) in s.replayed)), (s.method, n)


def test_a_summary_with_loads_is_sorted_once_and_replayed_whole():
    an = analyze(load(load_chain(4), "loads.mcl"))
    s = an.summaries["Walk.w3"]
    assert s.loads and not s.mapped
    assert s.replayed == sorted(s.ptg.E, key=escape._edge_key)
    assert s.returned_order == sorted(s.ptg.returned, key=PTGNode.sort_key)


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.mcl")))
def test_one_more_walk_changes_nothing_and_records_the_same(name):
    prog = load_corpus(name)
    an = analyze(prog)
    class_map = prog.class_map()
    for m in prog.methods():
        builder = escape._Builder(m, an.summaries, class_map)
        g = builder.run()
        size, calls, tagged = g.size(), g.call_records, g.tagged
        g.call_records, g.tagged = [], {}
        builder.walk(m.body)
        assert g.size() == size, m.qname
        assert (g.call_records, g.tagged) == (calls, tagged), m.qname


OUT_ARGS = """
class T { T next; }
class U {
    T kept;
    void make(out T t, T seed) {
        memreq<T>(1);
        esc<T>(Made, 1);
        bind_esc(Made, t);

        dest_esc(Made);
        t = new T();
        t.next = seed;
    }
    T first(T[] arr) {
        T e = arr[0];
        return e;
    }
    void quit() {
        T x = new T();
        return;
    }
    void top(T[] arr) {
        T got = null;
        T s = new T();
        add_esc(this, Made);
        this.make(out got, s);
        this.kept = got;
        T f = this.first(arr);
        this.kept = f;
        this.quit();
    }
}
"""


def test_out_arguments_element_loads_and_a_bare_return():
    prog = load(OUT_ARGS, "t.mcl")
    an = analyze(prog)
    assert site_id_map(prog) == {"U.make#1": 1, "U.quit#1": 2, "U.top#1": 3}
    assert an.graphs["U.first"].canonical() == {
        "L": {"arr": ["arr"], "e": ["arr.[*]"], "this": ["this"]},
        "N": ["arr", "arr.[*]", "this"],
        "E": [("arr", "[*]", "arr.[*]")],
        "returned": ["arr.[*]"]}
    assert an.graphs["U.quit"].canonical() == {
        "L": {"this": ["this"], "x": ["U.quit#1"]},
        "N": ["U.quit#1", "this"], "E": [], "returned": []}
    # the out-argument got receives make's allocation, which holds s
    assert an.graphs["U.top"].canonical() == {
        "L": {"arr": ["arr"], "f": ["arr.[*]"], "got": ["U.make#1"],
              "s": ["U.top#1"], "this": ["this"]},
        "N": ["U.make#1", "U.top#1", "arr", "arr.[*]", "this"],
        "E": [("U.make#1", "next", "U.top#1"), ("arr", "[*]", "arr.[*]"),
              ("this", "kept", "U.make#1"), ("this", "kept", "arr.[*]")],
        "returned": []}
    assert [v.to_json() for v in an.lifetimes["U.top"]] == [
        {"method": "U.top", "where": "U.top#1", "kind": ESCAPES_UNANNOTATED,
         "note": "reachable from This"},
        {"method": "U.top", "where": "U.top@1", "kind": OK, "tag": "This"}]
    assert [v.kind for v in an.lifetimes["U.quit"]] == [OK]


SELF_RECURSIVE = """
class Node {
    Node next;

    Node() { }

    Node grow(Node head, int n) {
        requires(n >= 0);
        memreq<Node>(n);
        esc<Node>(return, n);

        if (n > 0) {
            dest_esc(return);
            Node cell = new Node();
            cell.next = head;
            add_esc(return, return);
            Node more = this.grow(cell, n - 1);
            return more;
        }
        return head;
    }
}
"""

RETURN_OK = {"kind": OK, "tag": "Return"}

# summaries and verdicts of two recursive components, pinned: a change to when
# the fixpoint stops iterating must leave them as they are
PINNED = {
    "self": (
        {"Node.Node": {"L": {}, "N": ["this"], "E": [], "returned": []},
         "Node.grow": {"L": {}, "N": ["Node.grow#1", "head", "this"],
                       "E": [("Node.grow#1", "next", "Node.grow#1"),
                             ("Node.grow#1", "next", "head")],
                       "returned": ["Node.grow#1", "head"]}},
        {"Node.Node": [],
         "Node.grow": [dict(RETURN_OK, method="Node.grow", where="Node.grow#1"),
                       dict(RETURN_OK, method="Node.grow", where="Node.grow@1")]},
    ),
    "zigzag": (
        {q: {"L": {}, "N": ["Link.zag#1", "Link.zig#1", "this"],
             "E": [("Link.zag#1", "rest", "Link.zig#1"),
                   ("Link.zig#1", "rest", "Link.zag#1")],
             "returned": [f"{q}#1"]} for q in ("Link.zag", "Link.zig")},
        {q: [dict(RETURN_OK, method=q, where=f"{q}#1"),
             dict(RETURN_OK, method=q, where=f"{q}@1")] for q in ("Link.zag", "Link.zig")},
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_recursive_components_iterate_to_the_pinned_fixpoint(monkeypatch, case):
    calls = count_calls(monkeypatch, escape, "build_ptg")
    prog = load(SELF_RECURSIVE, "t.mcl") if case == "self" else load_corpus(case)
    an = analyze(prog)
    summaries, lifetimes = PINNED[case]
    assert {q: s.ptg.canonical() for q, s in an.summaries.items()} == summaries
    assert {q: [v.to_json() for v in vs] for q, vs in an.lifetimes.items()} == lifetimes
    built = [m.qname for m, *_ in calls]
    assert all(built.count(q) >= 2 for q in summaries if q != "Node.Node")


# ---------------------------------------------------------------- verdicts


@pytest.mark.parametrize(
    "name",
    ["family", "brothers", "callpair", "bigfamily", "family_object", "listbuild",
     "zigzag", "boxedpath", "eitherway", "workqueue", "raggedstore"],
)
def test_positive_corpus_has_clean_lifetimes(name):
    an = analyze(load_corpus(name))
    for q, vs in an.lifetimes.items():
        for v in vs:
            assert v.kind in (OK, SUPPRESSED), (q, v)


def test_missing_dest_esc_is_flagged():
    an = analyze(load_corpus("faulty_missing_destesc"))
    assert ESCAPES_UNANNOTATED in kinds(an, "Family.AddMember")


def test_missing_add_esc_is_flagged_on_the_call():
    an = analyze(load_corpus("faulty_missing_addesc"))
    bad = [v for v in an.lifetimes["Family.CreateFamily"]
           if v.kind == ESCAPES_UNANNOTATED]
    assert bad and bad[0].where.startswith("Family.CreateFamily@")


def test_swapped_tags_give_two_mismatches():
    an = analyze(load_corpus("faulty_swapped_tags"))
    assert kinds(an, "Person.CreateBrothers").count(TAG_MISMATCH) == 2


def test_phantom_escape_annotation_is_flagged():
    an = analyze(load_corpus("faulty_phantom_escape"))
    assert ANNOTATED_CAPTURED in kinds(an, "Cutter.polish")


def test_dest_local_suppresses_false_alarm():
    an = analyze(load_corpus("scratchslot"))
    assert kinds(an, "Workbench.rebuild") == [SUPPRESSED]
    # without the suppression the imprecise graph raises an alarm
    src = (CORPUS / "scratchslot.mcl").read_text()
    mutated = "\n".join(ln for ln in src.splitlines() if "dest_local" not in ln)
    an2 = analyze(load(mutated, "mut.mcl"))
    assert ESCAPES_UNANNOTATED in kinds(an2, "Workbench.rebuild")


def test_bind_path_resolves_through_fields():
    an = analyze(load_corpus("boxedpath"))
    assert all(v.kind == OK for v in an.lifetimes["Registry.fill"])


# --------------------------------------------------------------------- dot


def test_dot_export_shapes_and_ids():
    prog = load_corpus("family")
    an = analyze(prog)
    ids = site_id_map(prog)
    dot = to_dot("Family.AddMember", an.graphs["Family.AddMember"], ids)
    person_id = ids["Family.AddMember#1"]
    assert f"n{person_id} [shape=ellipse style=solid" in dot
    assert "p_this [shape=ellipse style=dashed" in dot
    assert '[label="_members"]' in dot
    assert dot == to_dot("Family.AddMember", an.graphs["Family.AddMember"], ids)
