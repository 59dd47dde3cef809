"""Incremental reclamation against a full mark: pinned runs, random heaps,
and the work that a sweep and an activation's exit do."""

import io
import pathlib
import random

import pytest

from helpers import forward_mark
from mclcheck.cli import main
from mclcheck.frontend import load
from mclcheck.oracle import Interp, InterpreterFault, Ref, run, run_point

PINNED = pathlib.Path(__file__).resolve().parent / "pinned"


# ------------------------------------------------------------ pinned runs


@pytest.mark.parametrize("gc", ["ideal", "method-exit"])
def test_cycles_arrays_and_traversal_reclaim_as_pinned(gc):
    # rings, self-loops, 2-cycles pointing back at a live hub, an array of
    # self-loops and a `t = t.next` walk; the expected output was recorded
    # from the full-mark collector this one replaced
    out, err = io.StringIO(), io.StringIO()
    code = main(["run", str(PINNED / "shapes.mcl"), "--entry", "Shapes.all",
                 "--args", "[4]", "--format", "json", "--gc", gc], out=out, err=err)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == (PINNED / f"shapes_all_4.{gc}.json").read_text()


# ------------------------------------------------------------ random heaps


SHAPES = load("""
class Node {
    Node next;
    Node back;
}

class P {
    void f() { }
}
""", "random.mcl")


def incoming_recount(interp):
    """Each object's referrers counted from scratch: None for a frame slot."""
    want = {oid: {} for oid in interp.heap}
    slots = [(None, v) for act in interp.stack
             for v in [act.this, *act.locals.values()]]
    slots += [(oid, v) for oid, obj in interp.heap.items() for v in obj.fields.values()]
    for src, v in slots:
        if isinstance(v, Ref):
            want[v.oid][src] = want[v.oid].get(src, 0) + 1
    return want


def random_step(rng, interp, method):
    act = interp.stack[-1]
    # a program can only name what its frames reach
    values = [None] + [Ref(oid) for oid in sorted(forward_mark(interp))]
    op = rng.randrange(6)
    if op == 0:
        ref = interp._instance("Node", "test")
        if rng.random() < 0.8:
            interp._set_local(act, rng.choice("abc"), ref)
    elif op == 1:
        n = rng.randint(0, 3)
        ref = interp._alloc("Node[]", n, "test", dict.fromkeys(range(n)), n)
        interp._set_local(act, rng.choice("abc"), ref)
    elif op == 2:
        interp._set_local(act, rng.choice("abc"), rng.choice(values))
    elif op == 3 and len(values) > 1:
        obj = interp.heap[rng.choice(values[1:]).oid]
        if obj.length is None:
            interp._set_field(obj, rng.choice(("next", "back")), rng.choice(values))
        elif obj.length:
            interp._set_field(obj, rng.randrange(obj.length), rng.choice(values))
    elif op == 4 and len(interp.stack) < 4:
        interp._push(method, rng.choice(values), [])
    elif op == 5 and len(interp.stack) > 1:
        interp._assert_accounting([act])
        interp._pop(act)


def test_random_heap_operations_sweep_exactly_the_unreachable_objects():
    rng = random.Random(5)
    method = SHAPES.method("P.f")
    sweeps = 0
    for _ in range(300):
        interp = Interp(SHAPES, gc=rng.choice(("ideal", "method-exit")))
        interp.push_harness()
        for _ in range(rng.randint(1, 60)):
            random_step(rng, interp, method)
            assert {oid: obj.incoming for oid, obj in interp.heap.items()} \
                == incoming_recount(interp)
            if interp.gc == "ideal" or rng.random() < 0.3:
                garbage = sorted(set(interp.heap) - forward_mark(interp))
                mark = len(interp.trace)
                interp._sweep()
                sweeps += 1
                assert interp.trace[mark:] == [("reclaim", oid) for oid in garbage]
                assert not interp.suspects
        interp._assert_accounting()
    assert sweeps > 3000


def test_nothing_is_suspected_when_nothing_is_ever_reclaimed():
    interp = Interp(SHAPES, gc="none")
    act = interp.push_harness()
    interp._set_local(act, "a", interp._instance("Node", "test"))
    interp._set_local(act, "a", None)
    assert interp.suspects == set()


# ------------------------------------------------------------ work per sweep


LIST = load("""
class Cell {
    Cell next;
}

class L {
    Cell chain(int n) {
        requires(n >= 0);
        Cell head = null;
        for (i = 1 .. n) {
            Cell cell = new Cell();
            cell.next = head;
            head = cell;
        }
        return head;
    }
}
""", "list.mcl")


# The interpreter's own search methods, before the suite's exactness
# checks wrap them (the module is imported before any fixture runs), so
# that counting their work leaves out the full marks the checks make.
FINISH, SWEEP = Interp._finish, Interp._sweep


class CountedHeap(dict):
    """A heap that counts the objects looked up by oid, as a search does."""

    visits = 0

    def __getitem__(self, oid):
        self.visits += 1
        return dict.__getitem__(self, oid)


def visits(monkeypatch, name, method, program, qname, sizes, gc="ideal"):
    """The heap objects that `Interp.<name>`, run as `method`, looks up in
    one harness run of qname at each of the sizes."""
    init = Interp.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.heap = CountedHeap()

    def counted(self, *args):
        start = self.heap.visits
        method(self, *args)
        tally[0] += self.heap.visits - start

    monkeypatch.setattr(Interp, "__init__", counted_init)
    monkeypatch.setattr(Interp, name, counted)
    counts = []
    for n in sizes:
        tally = [0]
        run_point(program, qname, {"n": n}, gc=gc)
        counts.append(tally[0])
    return counts


# The receiver fill: each push hangs a new node in front of the list that
# the receiver already holds.
FILL = load("""
class Node {
    Node next;
}

class Q {
    Node head;

    void push() {
        esc<Node>(this, 1);
        memreq<Node>(1);
        dest_esc(this);
        Node x = new Node();
        x.next = this.head;
        this.head = x;
    }

    void fill(int n) {
        requires(n >= 0);
        memreq<Node>(n);
        esc<Node>(this, n);
        for (i = 1 .. n) {
            add_esc(this, this);
            this.push();
        }
    }
}
""", "fill.mcl")


@pytest.mark.parametrize("gc", ["ideal", "method-exit"])
def test_the_exit_search_grows_linearly_with_the_receiver_fill(monkeypatch, gc):
    # an exit searches back from the objects its activation made, so a push
    # visits its new node and the receiver, not the list behind them
    small, large = visits(monkeypatch, "_finish", FINISH, FILL, "Q.fill", (100, 200), gc)
    assert 0 < small and large <= 2 * small + 10


# A call on a receiver that the caller's local holds.
BUMP = load("""
class C {
    int k;

    void bump() {
        this.k = this.k + 1;
    }
}

class P {
    void f(int n) {
        requires(n >= 0);
        C c = new C();
        for (i = 1 .. n) {
            c.bump();
        }
    }
}
""", "bump.mcl")


def test_a_call_on_a_receiver_that_a_local_holds_runs_no_sweep(monkeypatch):
    # the receiver's slot in the callee's frame goes, but the caller's local
    # still roots it: the one sweep with work is the run's last, which
    # reclaims c
    sweep = Interp._sweep
    sweeps = []

    def counted(self):
        if self.suspects:  # a sweep with nothing to search returns at once
            sweeps.append(1)
        sweep(self)

    monkeypatch.setattr(Interp, "_sweep", counted)
    counts = []
    for n in (10, 20):
        sweeps.clear()
        run_point(BUMP, "P.f", {"n": n})
        counts.append(len(sweeps))
    assert counts == [1, 1]


# The churn loop: each iteration drops the two nodes that the previous
# one made, the first still linked to the second.
CHURN = load("""
class Node {
    Node link;
}

class C {
    void churn(int n) {
        requires(n >= 1);
        for (i = 1 .. n) {
            Node a = new Node();
            Node b = new Node();
            a.link = b;
        }
    }
}
""", "churn.mcl")


def test_a_sweep_looks_up_each_dropped_node_once(monkeypatch):
    # a search keeps the objects it visits, so each iteration looks up its
    # two nodes once each as they go, and b once more as a's field lets it go
    assert visits(monkeypatch, "_sweep", SWEEP, CHURN, "C.churn", (100, 200)) == [300, 600]


# x is allocated first and y holds it: once both locals are gone, only y's
# field references x.
CASCADE = load("""
class Node {
    Node next;
}

class P {
    void cascade() {
        Node x = new Node();
        Node y = new Node();
        y.next = x;
        x = null;
        y = null;
    }

    void held() {
        Node x = new Node();
        Node y = new Node();
        y.next = x;
        y = null;
    }
}
""", "cascade.mcl")


@pytest.mark.parametrize("entry, batches", [
    # y goes, and with its field x: one sweep, in ascending oid order
    ("P.cascade", [[1, 2]]),
    # y goes, but the local x holds y's child until the frame pops
    ("P.held", [[2], [1]]),
])
def test_a_sweep_reclaims_what_it_finds_in_oid_order(monkeypatch, entry, batches):
    sweep = Interp._sweep
    reclaimed = []

    def recorded(self):
        mark = len(self.trace)
        sweep(self)
        if len(self.trace) > mark:
            reclaimed.append([ev[1] for ev in self.trace[mark:]])

    monkeypatch.setattr(Interp, "_sweep", recorded)
    trace = run(CASCADE, entry).trace
    assert [ev[1] for ev in trace if ev[0] == "alloc"] == [1, 2]
    assert reclaimed == batches


# Build a list, then walk it with `t = t.next`.
WALK = load("""
class Cell {
    Cell next;
}

class W {
    Cell walk(int n) {
        requires(n >= 0);
        Cell head = null;
        for (i = 1 .. n) {
            Cell cell = new Cell();
            cell.next = head;
            head = cell;
        }
        Cell t = head;
        for (j = 2 .. n) {
            t = t.next;
        }
        return t;
    }
}
""", "walk.mcl")


@pytest.mark.xfail(strict=True, reason="an open defect: each `t = t.next` makes the"
                   " sweep search back along the list to the head's root")
def test_the_sweeps_of_a_walk_grow_linearly_with_the_list(monkeypatch):
    small, large = visits(monkeypatch, "_sweep", SWEEP, WALK, "W.walk", (100, 200))
    assert 0 < small and large <= 2 * small + 10


def test_live_count_drift_shows_when_the_activation_exits(monkeypatch):
    # outside the test suite nothing recounts after each statement; the
    # exiting activation is recounted before its frame goes
    finish = Interp._finish

    def drifting(self, act, ret):
        act.current["Cell"] = act.current.get("Cell", 0) + 1
        finish(self, act, ret)

    monkeypatch.setattr(Interp, "_finish", drifting)
    with pytest.raises(InterpreterFault, match=r"drift in L\.chain@1"):
        run(LIST, "L.chain", [3])
