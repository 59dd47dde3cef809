"""Interpreter ground truth: live peaks, escape counts, and the grid harness."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclcheck.cli import _value_json
from mclcheck.frontend import load, obligations, parse
from mclcheck import oracle
from mclcheck.instrument import instrument
from mclcheck.oracle import (
    ArgumentError,
    ArrayBounds,
    GridTooLarge,
    Interp,
    InterpreterFault,
    NullDereference,
    OracleError,
    OutsidePrecondition,
    Ref,
    RequiresViolation,
    StackExhausted,
    StepBudgetExceeded,
    harness_plan,
    run,
    run_point,
    validate,
)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

POSITIVE = [
    "family", "brothers", "callpair", "bigfamily", "family_object",
    "listbuild", "zigzag", "scratchslot", "boxedpath", "eitherway",
    "workqueue", "raggedstore",
]


def load_corpus(name):
    return load((CORPUS / f"{name}.mcl").read_text(), f"{name}.mcl")


# ------------------------------------------------------------ single runs


def test_a_reference_is_a_value_named_by_its_oid():
    assert Ref(3) == Ref(3) and hash(Ref(3)) == hash(Ref(3))
    assert Ref(3) != Ref(4)
    assert Ref(3) != 3 and Ref(3) != (3,) and Ref(3) != None
    assert repr(Ref(3)) == "Ref(oid=3)"
    assert not hasattr(Ref(3), "__dict__")
    assert _value_json(Ref(3)) == {"$ref": 3}


def test_ctor_run_counts_temporary():
    r = run(load_corpus("family"), "Person.Person", ["Ann", "Lee"])
    obs = r.observation("Person.Person")
    assert obs.peak == {"Logger": 1, "object": 1}
    # the Person instance itself belongs to whoever said `new`, so the
    # constructor's escape ledger stays empty once the Logger dies
    assert obs.esc == {}
    assert r.assertion_failures == []


def test_create_family_three_names():
    r = run(load_corpus("family"), "Family.CreateFamily", ["Doe", ["a", "b", "c"]])
    obs = r.observation("Family.CreateFamily")
    assert obs.peak["Person"] == 3
    assert obs.peak["Logger"] == 1
    assert obs.peak["Family"] == 1
    assert obs.peak["Person[]"] == 3
    assert obs.peak["object"] == 8
    assert obs.esc["Return"] == {"Family": 1, "Person[]": 3, "Person": 3,
                                 "object": 7}
    assert obs.entry_env == {"firstNames.length": 3}


def test_create_family_empty():
    r = run(load_corpus("family"), "Family.CreateFamily", ["Doe", []])
    obs = r.observation("Family.CreateFamily")
    assert obs.peak == {"Family": 1, "object": 1}
    assert obs.esc == {"Return": {"Family": 1, "object": 1}}


def test_empty_body_measures_nothing():
    prog = load("class T { void nop() { } }", "inline")
    obs = run(prog, "T.nop").observation("T.nop")
    assert obs.peak == {}
    assert obs.esc == {}


def test_return_value_is_the_new_instance():
    r = run(load_corpus("family"), "Person.Person", ["Ann", "Lee"])
    assert r.return_value is not None
    # inner calls observe too: the ctor logs a message
    assert [o.method for o in r.observations] == \
        ["Logger.logMessage", "Person.Person"]


def test_logger_peak_stays_one_across_iterations():
    prog = load_corpus("bigfamily")
    r = run_point(prog, "Family.CreateBigFamily", {"ctor.size": 0, "n": 4})
    assert r.observation("Family.CreateBigFamily").peak["Logger"] == 1


def test_callee_allocations_charge_every_ancestor():
    src = """
    class T { int x; }
    class K {
        T slot;
        void fill() {
            memreq<T>(1);
            esc<T>(this, 1);

            dest_esc(this);
            T t = new T();
            this.slot = t;
        }
        void top() {
            memreq<T>(1);

            add_esc(this, this);
            this.fill();
        }
    }
    """
    r = run_point(load(src, "inline"), "K.top", {})
    assert r.observation("K.top").peak["T"] == 1
    assert r.observation("K.fill").peak["T"] == 1


# ------------------------------------------------------------ escape counts


def test_callpair_escapes_match_contract_exactly():
    r = run_point(load_corpus("callpair"), "A.m", {"n": 4})
    obs = r.observation("A.m")
    assert obs.esc["Return"]["A"] == 2
    assert obs.esc["Param"]["A"] == 1
    assert obs.double_counted == ()


def test_user_tag_bound_to_out_param():
    r = run_point(load_corpus("brothers"), "Person.CreateBrothers", {})
    obs = r.observation("Person.CreateBrothers")
    assert obs.esc["Return"]["Person"] == 1
    assert obs.esc["Sibling"]["Person"] == 1
    assert obs.peak["Person"] == 2


def test_overwritten_slot_escapes_once():
    # the contract declares one escape per iteration; only the last survives,
    # so the measured escape sits strictly under the declared total
    r = run_point(load_corpus("workqueue"), "Worker.drive", {"n": 3})
    obs = r.observation("Worker.drive")
    assert obs.esc["This"]["Buf"] == 1
    assert obs.peak["Buf"] == 3


def test_recursive_chain_escapes_every_node():
    r = run_point(load_corpus("listbuild"), "Node.build", {"n": 5})
    obs = r.observation("Node.build")
    assert obs.esc["Return"]["Node"] == 5
    assert obs.peak["Node"] == 5


def test_object_reachable_from_two_tags_is_flagged():
    src = """
    class Box {
        Box part;
        Box give() {
            memreq<Box>(1);
            esc<Box>(return, 1);
            esc<Box>(this, 1);

            dest_esc(return);
            Box b = new Box();
            this.part = b;
            return b;
        }
    }
    """
    obs = run_point(load(src, "inline"), "Box.give", {}).observation("Box.give")
    assert obs.esc["Return"]["Box"] == 1
    assert obs.esc["This"]["Box"] == 1
    assert obs.double_counted == ("Box",)


@pytest.mark.parametrize("n", range(1, 7))
def test_triangle_escape_count_is_exact(n):
    r = run_point(load_corpus("bigfamily"), "Family.CreateBigFamily",
                  {"ctor.size": 0, "n": n})
    obs = r.observation("Family.CreateBigFamily")
    assert obs.esc["Return"]["Person"] == n * (n + 1) // 2


# ------------------------------------------------------------ reclamation modes


def test_reclamation_mode_ordering():
    prog = load_corpus("workqueue")
    peaks = {}
    for gc in ("ideal", "method-exit", "none"):
        r = run_point(prog, "Worker.drive", {"n": 4}, gc=gc)
        peaks[gc] = r.observation("Worker.drive").peak.get("Buf", 0)
    assert peaks["ideal"] == 3
    assert peaks["method-exit"] == 4
    assert peaks["none"] == 22
    assert peaks["ideal"] <= peaks["method-exit"] <= peaks["none"]


@pytest.mark.parametrize("name,entry,point", [
    ("family", "Family.CreateFamily", {"ctor.size": 0, "firstNames.length": 4}),
    ("bigfamily", "Family.CreateBigFamily", {"ctor.size": 0, "n": 5}),
    ("callpair", "A.m", {"n": 5}),
    ("listbuild", "Node.build", {"n": 6}),
    ("raggedstore", "Stash.grow", {"n": 4}),
    ("eitherway", "Chooser.pick", {"coin": 1}),
])
def test_ideal_peaks_never_exceed_unreclaimed(name, entry, point):
    prog = load_corpus(name)
    plan = harness_plan(prog, entry, 6)
    full = {k.name: k.values[0] for k in plan.knobs}
    full.update({k: v for k, v in point.items() if k in full})
    ideal = run_point(prog, entry, full, gc="ideal")
    none = run_point(prog, entry, full, gc="none")
    for oi, on in zip(ideal.observations, none.observations):
        assert oi.instance == on.instance
        for key, peak in oi.peak.items():
            assert peak <= on.peak.get(key, 0), (oi.instance, key)


def test_returned_object_survives_exit_sweep():
    # a value in flight between callee return and caller store is rooted;
    # reclaiming it there once crashed bigfamily under method-exit mode
    r = run(load_corpus("bigfamily"), "Family.CreateBigFamily", [3],
            gc="method-exit")
    obs = r.observation("Family.CreateBigFamily")
    assert obs.esc["Return"]["Person"] == 6


@pytest.mark.parametrize("gc_pair", [("ideal", "method-exit"),
                                     ("method-exit", "none")])
def test_dominance_across_contracted_corpus(gc_pair):
    weaker, stronger = gc_pair
    for path in sorted(CORPUS.glob("*.mcl")):
        prog = load(path.read_text(), path.name)
        for m in prog.methods():
            if not obligations(m):
                continue
            plan = harness_plan(prog, m.qname, 2)
            if plan.skip_reason:
                continue
            for point in plan.points():
                try:
                    rw = run_point(prog, m.qname, point, gc=weaker)
                    rs = run_point(prog, m.qname, point, gc=stronger)
                except RequiresViolation:
                    continue
                for ow, os_ in zip(rw.observations, rs.observations):
                    for key, peak in ow.peak.items():
                        assert peak <= os_.peak.get(key, 0), \
                            (path.name, ow.instance, key, point)


def test_unreclaimed_counts_equal_total_allocations():
    r = run_point(load_corpus("workqueue"), "Worker.drive", {"n": 3}, gc="none")
    allocs = sum(ev[3] for ev in r.trace
                 if ev[0] == "alloc" and ev[2] == "Buf")
    assert r.observation("Worker.drive").peak["Buf"] == allocs - 0
    assert not any(ev[0] == "reclaim" for ev in r.trace)


# ------------------------------------------------------------ traces


def test_trace_shape_and_sites():
    r = run(load_corpus("family"), "Family.CreateFamily", ["Doe", ["a"]])
    kinds = {ev[0] for ev in r.trace}
    assert kinds <= {"alloc", "reclaim", "call", "ret"}
    in_method = [ev for ev in r.trace
                 if ev[0] == "alloc" and ev[5] != "<harness>@0"]
    assert all("#" in ev[4] for ev in in_method)
    calls = [ev for ev in r.trace if ev[0] == "call"]
    rets = [ev for ev in r.trace if ev[0] == "ret"]
    assert len(calls) == len(rets) == len(r.observations)


@pytest.mark.parametrize("name,entry", [
    ("family", "Family.CreateFamily"),
    ("callpair", "A.m"),
    ("bigfamily", "Family.CreateBigFamily"),
    ("listbuild", "Node.build"),
    ("workqueue", "Worker.drive"),
    ("brothers", "Person.CreateBrothers"),
    ("raggedstore", "Stash.grow"),
    ("family_object", "Family.CreateFamily"),
])
def test_instrumented_run_leaves_no_footprint(name, entry):
    # counter statements must not move a single alloc, reclaim, call, or ret
    prog = load_corpus(name)
    inst = instrument(prog).program
    plan = harness_plan(prog, entry, 3)
    compared = 0
    for point in plan.points():
        try:
            r1 = run_point(prog, entry, point)
        except RequiresViolation:
            continue
        r2 = run_point(inst, entry, point)
        assert r1.trace == r2.trace, point
        assert r2.assertion_failures == []
        compared += 1
    assert compared > 0


def test_deterministic_replay():
    prog = load_corpus("bigfamily")
    a = run_point(prog, "Family.CreateBigFamily", {"ctor.size": 0, "n": 4})
    b = run_point(prog, "Family.CreateBigFamily", {"ctor.size": 0, "n": 4})
    assert a.trace == b.trace
    assert [o.to_json() for o in a.observations] == \
        [o.to_json() for o in b.observations]


# ------------------------------------------------------------ errors


def test_requires_violation_on_direct_entry():
    with pytest.raises(OutsidePrecondition) as exc:
        run(load_corpus("callpair"), "A.m", [1])
    assert exc.value.method == "A.m"


def test_entry_needing_receiver_state_dereferences_null():
    with pytest.raises(NullDereference):
        run(load_corpus("family"), "Family.AddMember", ["Ann"])


def test_array_bounds_checked():
    src = """
    class T { int x; }
    class U {
        void poke(int i) {
            T[] arr = new T[2];
            arr[i] = null;
        }
    }
    """
    prog = load(src, "inline")
    run_point(prog, "U.poke", {"i": 1})
    with pytest.raises(ArrayBounds):
        run_point(prog, "U.poke", {"i": 2})


def test_step_budget_guards_runaway_runs(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_STEPS", 10)
    with pytest.raises(StepBudgetExceeded):
        run_point(load_corpus("bigfamily"), "Family.CreateBigFamily",
                  {"ctor.size": 0, "n": 8})


def test_unresolved_program_rejected():
    prog = parse("class T { void nop() { } }", "inline")
    with pytest.raises(ValueError):
        Interp(prog)


def test_division_truncates_toward_zero():
    src = """
    class D {
        int half(int n) {
            int h = n / 2;
            return h;
        }
    }
    """
    prog = load(src, "inline")
    assert run(prog, "D.half", [7]).return_value == 3
    assert run(prog, "D.half", [-7]).return_value == -3


# ------------------------------------------------------------ grid harness


def test_plan_uses_ctor_for_stateful_receiver():
    prog = load_corpus("family")
    plan = harness_plan(prog, "Family.AddMember", 4)
    assert [k.name for k in plan.knobs] == ["ctor.size"]
    assert plan.point_count() == 5
    calls = [ev[1] for ev in run_point(prog, "Family.AddMember",
                                       {"ctor.size": 2}).trace if ev[0] == "call"]
    assert calls[:2] == ["Family.Family", "Family.AddMember"]


def test_plan_uses_bare_receiver_without_ctor():
    prog = load_corpus("callpair")
    plan = harness_plan(prog, "A.m", 4)
    assert [k.name for k in plan.knobs] == ["n"]
    calls = [ev[1] for ev in run_point(prog, "A.m", {"n": 4}).trace
             if ev[0] == "call"]
    assert calls[0] == "A.m"
    assert not any(prog.method(c).is_ctor for c in calls)


def test_plan_skips_unsynthesizable_arguments():
    src = """
    class T { int x; }
    class U {
        void eat(T t) {
            memreq<T>(1);
            T u = new T();
        }
    }
    """
    # T has no constructor, so a bare instance works
    plan = harness_plan(load(src, "inline"), "U.eat", 2)
    assert plan.skip_reason is None or "T" in plan.skip_reason


def test_point_outside_precondition_raises_direct():
    with pytest.raises(OutsidePrecondition):
        run_point(load_corpus("callpair"), "A.m", {"n": 0})


@pytest.mark.parametrize("name", POSITIVE)
def test_verified_corpus_is_runtime_clean(name):
    report = validate(load_corpus(name), hi=4)
    assert report.clean, report.to_json()
    assert report.runs > 0


def test_skipped_points_counted():
    report = validate(load_corpus("callpair"), hi=4)
    # n in {0, 1} misses A.m's precondition, k in {0, 1} misses A.m2's
    assert report.points_skipped == 4


def test_lowered_bound_violations_carry_witnesses():
    # one record per violated clause, kept at its least witness
    report = validate(load_corpus("faulty_low_bound"), hi=4)
    [v] = [v for v in report.violations
           if v.method == "Family.CreateFamily" and v.clause == "memreq<Person>"]
    assert v.entry_env == {"firstNames.length": 0, "this._members.length": 0,
                           "this._size": 0}
    assert (v.observed, v.declared_value) == (0, -1)
    assert (v.activations, v.runs) == (25, 25)
    assert v.trace


def test_zero_escape_bound_violated_at_runtime():
    report = validate(load_corpus("faulty_zero_esc"), hi=3)
    assert any(v.clause.startswith("esc<") for v in report.violations)


def test_negative_bound_violated_even_without_allocations():
    report = validate(load_corpus("faulty_negative_bound"), hi=2)
    assert any(v.declared_value < 0 for v in report.violations)


def test_object_count_bound_checked_at_runtime():
    report = validate(load_corpus("faulty_object_low"), hi=3)
    assert any(v.clause == "memreq<object>" for v in report.violations)


def test_callee_precondition_abort_is_reported():
    report = validate(load_corpus("faulty_precondition_skip"), hi=4)
    assert report.requires_aborts
    assert all(callee == "Feeder.need" for _, _, callee in report.requires_aborts)
    assert not report.clean


def test_instrumented_faulty_program_fails_its_ensures():
    inst = instrument(load_corpus("faulty_low_bound")).program
    report = validate(inst, hi=3)
    assert report.ensure_failures
    entry, point, failure = report.ensure_failures[0]
    assert "MemReq" in failure.cond


def test_statically_quiet_programs_stay_quiet_at_runtime():
    # these two are rejected statically (unprovable), yet never misbehave
    for name in ("faulty_humpcall", "faulty_narrow_space"):
        report = validate(load_corpus(name), hi=6)
        assert report.clean, name


def test_grid_cap_enforced(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_POINTS", 3)
    with pytest.raises(GridTooLarge):
        validate(load_corpus("family"), hi=8)


def test_report_json_deterministic():
    a = validate(load_corpus("faulty_low_bound"), hi=3)
    b = validate(load_corpus("faulty_low_bound"), hi=3)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)


# ------------------------------------------------------------ out params


def test_out_argument_copied_back_to_caller():
    src = """
    class T { int x; }
    class U {
        T kept;
        void make(out T t) {
            memreq<T>(1);
            esc<T>(Made, 1);
            bind_esc(Made, t);

            dest_esc(Made);
            t = new T();
        }
        void top() {
            memreq<T>(1);

            T got = null;
            add_esc(this, Made);
            this.make(out got);
            this.kept = got;
        }
    }
    """
    r = run_point(load(src, "inline"), "U.top", {})
    assert r.observation("U.make").esc["Made"]["T"] == 1
    assert r.observation("U.top").peak["T"] == 1


# ------------------------------------------------------------ properties


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=0, max_value=6))
def test_chain_length_always_matches(n):
    r = run_point(load_corpus("listbuild"), "Node.build", {"n": n})
    obs = r.observation("Node.build")
    assert obs.esc.get("Return", {}).get("Node", 0) == n
    assert obs.peak.get("Node", 0) == n


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=0, max_value=5), size=st.integers(min_value=0, max_value=3))
def test_family_scales_with_both_knobs(n, size):
    r = run_point(load_corpus("family"), "Family.CreateFamily",
                  {"ctor.size": size, "firstNames.length": n})
    obs = r.observation("Family.CreateFamily")
    assert obs.peak.get("Person", 0) == n
    assert obs.esc.get("Return", {}).get("Person", 0) == n


# ------------------------------------------------------------ internal faults


def test_reading_a_reclaimed_object_is_an_interpreter_fault():
    # a fault of the interpreter itself must not pass for a runtime error
    # of the program, which validate() would file as a finding
    assert not issubclass(InterpreterFault, OracleError)
    interp = Interp(load_corpus("callpair"))
    interp.push_harness()
    ref = interp._alloc("A", 1, "test", {}, None)
    interp._sweep()
    with pytest.raises(InterpreterFault, match="reclaimed"):
        interp._obj(ref)


def test_live_count_drift_is_an_interpreter_fault():
    interp = Interp(load_corpus("callpair"))
    act = interp.push_harness()
    interp._alloc("A", 1, "test", {}, None)
    act.current["A"] += 1
    with pytest.raises(InterpreterFault, match="drift"):
        interp._assert_accounting()


# ------------------------------------------------------------ argument binding


FLAGS = """
class B {
    int unset(bool[] flags) {
        int k = 0;
        for (i = 0 .. flags.length - 1) {
            if (flags[i] == false) {
                k = k + 1;
            }
        }
        return k;
    }

    int count(int n) {
        return n;
    }
}
"""


def test_bool_array_elements_start_false_in_every_harness():
    prog = load(FLAGS, "flags")
    assert run_point(prog, "B.unset", {"flags.length": 3}).return_value == 3
    assert run(prog, "B.unset", [[None, True, None]]).return_value == 2


def test_run_binds_arguments_by_in_parameter_and_checks_their_types():
    prog = load(FLAGS, "flags")
    with pytest.raises(ArgumentError, match=r"one per in-parameter \(flags\); got 2"):
        run(prog, "B.unset", [[], []])
    with pytest.raises(ArgumentError, match=r"argument n must be int"):
        run(prog, "B.count", [None])
    with pytest.raises(ArgumentError, match=r"argument flags\[1\] must be bool"):
        run(prog, "B.unset", [[True, 1]])


def test_entry_values_behind_a_null_array_are_left_out():
    src = "class T { int f(int[] xs, int n) { return n; } }"
    obs = run(load(src, "inline"), "T.f", [None, 2]).observation("T.f")
    assert obs.entry_env == {"n": 2}


DEEP = """
class D {
    void sink(int n) {
        if (n > 0) {
            sink(n - 1);
        }
    }

    void f(int n) {
        requires(n >= 0);
        memreq<D>(0);
        sink(100 * n);
    }
}
"""


def test_calls_past_the_interpreter_stack_are_runtime_errors():
    prog = load(DEEP, "deep")
    with pytest.raises(StackExhausted):
        run(prog, "D.sink", [500])
    report = validate(prog, hi=5)
    assert report.runs >= 1
    assert report.inconclusive and not report.runtime_errors
    assert report.overall == "Unverified"
    # n = 1 nests 103 frames (harness, f and 101 sinks); n = 2 would take 203
    assert {p["n"] for _, p, _ in report.inconclusive} == {2, 3, 4, 5}
    assert all("deeper than the interpreter's 200 frames" in msg
               for _, _, msg in report.inconclusive)


# ------------------------------------------------------------ lowering paths

PATHS = """
class T { int x; }
class U {
    void early(int n) {
        T a = new T();
        if (n > 0) {
            return;
        }
        T b = new T();
    }
    void negate(int n) {
        if (!(n > 1)) {
            T a = new T();
        }
    }
    void both(int n, T t) {
        if (t != null && t.x > 0) {
            T a = new T();
        }
        if (n > 0 && n < 3) {
            T b = new T();
        }
    }
    void either(int n, T t) {
        if (t == null || t.x > 0) {
            T a = new T();
        }
        if (n == 0 || n > 2) {
            T[] b = new T[2];
        }
    }
    void nullcall(int n) {
        U u = null;
        if (n > 0) {
            u = new U();
        }
        u.early(n);
    }
    void shrink(int n) {
        T[] a = new T[n - 1];
    }
}
"""


def paths_peak(entry, *args):
    return run(load(PATHS, "paths"), entry, list(args)).observation(entry).peak


@pytest.mark.parametrize("n, peak", [(0, {"T": 2, "object": 2}),
                                     (1, {"T": 1, "object": 1})])
def test_a_bare_return_leaves_the_rest_of_the_body(n, peak):
    assert paths_peak("U.early", n) == peak


@pytest.mark.parametrize("n, peak", [(1, {"T": 1, "object": 1}), (2, {})])
def test_not_negates_its_operand(n, peak):
    assert paths_peak("U.negate", n) == peak


@pytest.mark.parametrize("n, peak", [(0, {}), (2, {"T": 1, "object": 1}),
                                     (3, {})])
def test_and_needs_both_sides_and_skips_the_right_after_false(n, peak):
    # t is null: reading t.x would raise, so the right side never runs
    assert paths_peak("U.both", n, None) == peak


@pytest.mark.parametrize("n, peak", [(0, {"T": 1, "T[]": 2, "object": 3}),
                                     (1, {"T": 1, "object": 1}),
                                     (3, {"T": 1, "T[]": 2, "object": 3})])
def test_or_needs_either_side_and_skips_the_right_after_true(n, peak):
    assert paths_peak("U.either", n, None) == peak


def test_a_call_on_a_null_receiver_dereferences_null():
    assert paths_peak("U.nullcall", 1) == {"U": 1, "T": 1, "object": 2}
    with pytest.raises(NullDereference, match="^call to early on null$"):
        paths_peak("U.nullcall", 0)


def test_a_negative_array_length_is_out_of_bounds():
    assert paths_peak("U.shrink", 1) == {}
    assert paths_peak("U.shrink", 2) == {"T[]": 1, "object": 1}
    with pytest.raises(ArrayBounds, match="^negative array length -1$"):
        paths_peak("U.shrink", 0)
