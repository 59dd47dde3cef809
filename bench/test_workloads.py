"""Self-tests for the benchmark's generators and known answers.

    python3 -m pytest -q bench

The known answers come from the generators' arithmetic; these tests check
that arithmetic against the oracle interpreter on small points, so that a
mismatch reported by the benchmark is the checker's, not the generator's.
"""

import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from mclcheck import cli  # noqa: E402
from mclcheck.frontend import load  # noqa: E402
from mclcheck.oracle import run  # noqa: E402

SEEDS = (1, 2, 3)


def build(name, seed, tmp_path):
    work = tmp_path / f"{name}-{seed}"
    work.mkdir(parents=True)
    return workloads.build(name, seed, ROOT, work), work


def program(work, command):
    path = Path(command.argv[1])
    return load(path.read_text(), str(path))


def family_points(v):
    """Three points inside the requires chain p(k+1) <= pk + 1."""
    return [[1] * v,
            [3] + [max(0, 2 - k) for k in range(v - 1)],
            list(range(v))]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generated_programs_parse_and_resolve(name, seed, tmp_path):
    w, work = build(name, seed, tmp_path)
    for fname in w.inputs:
        if not fname.startswith("probe_"):
            load((work / fname).read_text(), fname)
    assert len({tuple(c.argv) for c in w.commands}) == len(w.commands)


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.BUILDERS:
        a, _ = build(name, 7, tmp_path / "a")
        b, _ = build(name, 7, tmp_path / "b")
        assert a.inputs == b.inputs
        assert [c.input for c in a.commands] == [c.input for c in b.commands]


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_bounds_match_the_oracle(seed, tmp_path):
    w, work = build("static-scale", seed, tmp_path)
    for c in w.commands:
        e = c.expect
        if e["variant"] == "exact":
            prog = program(work, c)
            qname = next(m.qname for m in prog.methods())
            for point in family_points(e["vars"]):
                obs = run(prog, qname, point).observation(qname)
                want = workloads.family_exact(e["nest"], e["b_lo"], point)
                got = {cls: obs.peak.get(cls, 0) for cls in "ABC"}
                got["Return.A"] = obs.esc.get("Return", {}).get("A", 0)
                assert got == want, (c.input, point)
        elif e["variant"] == "chain" and e["k"] <= 45:
            prog = program(work, c)
            for j in (0, 1, e["k"] - 1):
                qname = f"Relay{e['k']}.m{j}"
                obs = run(prog, qname, []).observation(qname)
                assert obs.peak == {"Box": j + 1, "object": j + 1}
                assert obs.esc["Return"]["Box"] == j + 1


@pytest.mark.parametrize("seed", SEEDS)
def test_beyond_grid_witness_reproduced_by_run(seed, tmp_path):
    w, work = build("static-scale", seed, tmp_path)
    mutants = [c for c in w.commands if c.expect["variant"] == "beyond"]
    assert len(mutants) == len(workloads.FAMILY_VARS) * \
        workloads.FAMILIES_PER_V
    for c in mutants:
        prog = program(work, c)
        qname = next(m.qname for m in prog.methods())
        args = json.dumps([9] + [0] * (c.expect["vars"] - 1))
        out = io.StringIO()
        code = cli.main(["run", c.argv[1], "--entry", qname, "--args", args,
                         "--format", "json"], out=out, err=io.StringIO())
        assert code == 0
        obs = workloads.outermost(json.loads(out.getvalue())["observations"],
                                  qname)
        assert obs["peakLive"]["C"] == 9 > 8


def test_oracle_deep_closed_forms(tmp_path):
    w, _ = build("oracle-deep", 1, tmp_path)
    t = workloads.Tally()
    for c in w.commands:
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(list(c.argv), out=out, err=err)
        t.add([w.judge(workloads.Result(c, code, out.getvalue(),
                                        err.getvalue()))])
    assert t.unexpected == []
    assert t.decided == t.attempted == len(w.commands)


def test_wrong_answers_are_counted(tmp_path):
    w, _ = build("static-scale", 1, tmp_path)
    by_variant = {c.expect["variant"]: c for c in w.commands}
    ok = json.dumps({"overall": "Verified", "clauses": []})
    t = workloads.Tally()
    t.add([w.judge(workloads.Result(by_variant["beyond"], 0, ok, "")),
           w.judge(workloads.Result(by_variant["exact"], 1, ok, "")),
           w.judge(workloads.Result(by_variant["lowered"], None, "", "",
                                    raised="RecursionError"))])
    assert (t.attempted, t.failed, t.decided) == (3, 3, 0)
    # the beyond-grid mutant is the known grid defect; the others are not
    assert len(t.unexpected) == 2


def test_faulty_corpus_file_must_be_caught(tmp_path):
    w, _ = build("corpus", 1, tmp_path)
    faulty = [c for c in w.commands
              if c.input == "faulty_low_bound" and c.role != "instrument"]
    t = workloads.Tally()
    t.add([w.judge(workloads.Result(c, 0, "{}", "")) for c in faulty])
    assert t.failed == 1 and t.unexpected == [
        "faulty_low_bound: caught by no command"]


def test_cases_count_once_however_many_passes(tmp_path):
    w, _ = build("static-scale", 1, tmp_path)
    by_variant = {c.expect["variant"]: c for c in w.commands}
    ok = json.dumps({"overall": "Verified", "clauses": []})
    verified = [w.judge(workloads.Result(by_variant[v], 0, ok, ""))
                for v in ("beyond", "exact")]
    t = workloads.Tally()
    for _ in range(3):
        t.add(verified)
    assert (t.attempted, t.failed, t.decided) == (2, 1, 1)
    # a case that fails in a later pass only is still one failure
    t.add([w.judge(workloads.Result(by_variant["exact"], 1, ok, ""))])
    assert (t.attempted, t.failed, t.decided) == (2, 2, 0)
