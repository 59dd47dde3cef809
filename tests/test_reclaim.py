"""Incremental reclamation against a full mark: pinned runs, random heaps,
and the work a sweep does."""

import io
import pathlib
import random

import pytest

from helpers import forward_mark
from mclcheck.cli import main
from mclcheck.frontend import load
from mclcheck.oracle import Interp, InterpreterFault, Ref, run

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


def test_full_marks_do_not_grow_with_the_list_length(monkeypatch):
    # a sweep looks only where a reference was dropped; the one full mark
    # left is the escape measurement at the activation's exit
    calls = []
    reach = Interp._reach
    monkeypatch.setattr(Interp, "_reach",
                        lambda self, roots: calls.append(1) or reach(self, roots))
    counts = []
    for n in (10, 80):
        calls.clear()
        obs = run(LIST, "L.chain", [n]).observation("L.chain")
        assert obs.esc["Return"]["Cell"] == n
        counts.append(len(calls))
    assert counts[0] > 0  # exits are measured through _reach
    assert counts[0] == counts[1]


def test_live_count_drift_shows_when_the_activation_exits(monkeypatch):
    # outside the test suite nothing recounts after each statement; the
    # exiting activation is recounted before its frame goes
    finish = Interp._finish

    def drifting(self, act, ret):
        finish(self, act, ret)
        act.current["Cell"] = act.current.get("Cell", 0) + 1

    monkeypatch.setattr(Interp, "_finish", drifting)
    with pytest.raises(InterpreterFault, match=r"drift in L\.chain@1"):
        run(LIST, "L.chain", [3])
