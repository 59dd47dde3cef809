"""End-to-end command coverage through main(); only the hash-seed tests and
the `python -m mclcheck` test start subprocesses, since a process fixes its
hash seed at start-up."""

import importlib.util
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (DEEP_SOURCE, HIDDEN_CLASS, MIXED_VIEWS, NESTED_CALL, UNDECLARED_OBJECT,
                     relay_chain)
from mclcheck import oracle
from mclcheck.cli import _build_parser, _dump, _trace_json, main
from mclcheck.frontend import EnsureStmt, collapsed, load, obligations
from mclcheck.instrument import KIND_ESC, KIND_MEMREQ, instrument
from mclcheck.summary import check_program

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def corpus(name):
    return str(CORPUS / f"{name}.mcl")


def run_module(*argv, hash_seed="0"):
    """`python -m mclcheck ARGV` in a fresh process with the given hash seed."""
    src = str(CORPUS.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "mclcheck", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_runs_the_cli():
    argv = ("check", corpus("family"), "--format", "json")
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == cli(*argv)


# ------------------------------------------------------------ check


def test_check_clean_corpus_exits_zero():
    code, out, err = cli("check", corpus("family"))
    assert code == 0
    assert err == ""
    assert "overall: Verified" in out
    assert "memreq<Person>" in out


def test_check_object_mode():
    code, out, _ = cli("check", "--mode", "object", corpus("family_object"))
    assert code == 0
    assert "memreq<object>" in out
    assert "overall: Verified" in out


def test_check_violated_exits_one_with_witness():
    code, out, _ = cli("check", corpus("faulty_low_bound"))
    assert code == 1
    assert "Violated" in out
    assert "witness:" in out


def test_a_witness_without_variables_is_printed_as_such():
    code, out, _ = cli("check", corpus("faulty_undeclared_class"))
    assert code == 1
    assert ("  Violated    Quiet.assemble  memreq<Widget>  declared (none)  computed 1\n"
            "              witness: (no variables)\n") in out


def test_check_unverified_exits_two():
    code, out, _ = cli("check", corpus("faulty_humpcall"))
    assert code == 2
    assert "Unverified" in out


def test_check_json_shape():
    code, out, err = cli("check", "--format", "json", corpus("family"))
    assert code == 0
    data = json.loads(out)
    assert data["file"].endswith("family.mcl")
    assert data["overall"] == "Verified"
    assert all(row["verdict"] == "Verified" for row in data["clauses"])


def test_check_many_files_reports_each():
    code, out, _ = cli("check", "--format", "json",
                       corpus("family"), corpus("callpair"))
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 2
    assert code == 0


def test_check_violation_dominates_unverified_across_files():
    code, _, _ = cli("check", corpus("faulty_humpcall"),
                     corpus("faulty_low_bound"))
    assert code == 1


def test_syntax_error_exits_three_with_json_diagnostic(tmp_path):
    bad = tmp_path / "bad.mcl"
    bad.write_text("class T { broken")
    code, out, err = cli("check", str(bad))
    assert code == 3
    diag = json.loads(err.splitlines()[0])
    assert diag["severity"] == "error"
    assert diag["file"] == str(bad)
    assert diag["line"] >= 1


def test_resolve_error_exits_three(tmp_path):
    bad = tmp_path / "bad.mcl"
    bad.write_text("class T { void f() { this.g(); } }")
    code, _, err = cli("check", str(bad))
    assert code == 3
    assert json.loads(err.splitlines()[0])["code"] == "unknown-method"


@pytest.mark.parametrize("body, message", [
    ("this.f(true, 1, 2);", "argument n of T.f must be int, got bool"),
    ("this.f(1, null, 2);", "argument m of T.f must be int, got null"),
    ("Box b = new Box(3);", "argument peer of Box constructor must be Box, got int"),
    ("Box b = new Box(null);", None),
])
def test_argument_of_the_wrong_type_exits_three(tmp_path, body, message):
    src = tmp_path / "args.mcl"
    src.write_text("class Box {\n    Box peer;\n    Box(Box peer) {\n"
                   "        this.peer = peer;\n    }\n}\n\n"
                   "class T {\n    void f(int n, int m, int k) {\n    }\n\n"
                   f"    void g() {{\n        {body}\n    }}\n}}\n")
    code, _, err = cli("check", str(src))
    if message is None:  # resolves; g's undeclared Box is a violation
        assert (code, err) == (1, "")
        return
    assert code == 3
    diag = json.loads(err.splitlines()[0])
    assert diag["code"] == "bad-argument"
    assert message in diag["message"]


def test_missing_file_exits_three():
    code, _, err = cli("check", "no_such_file.mcl")
    assert code == 3
    assert json.loads(err.splitlines()[0])["code"] == "io-error"


def test_recursion_without_contract_is_held_to_zero(tmp_path):
    # a member without clauses declares zero, recursive or not
    src = tmp_path / "rec.mcl"
    src.write_text("""
    class R {
        void spin(int n) {
            if (n > 0) { this.spin(n - 1); }
        }
    }
    """)
    assert cli("check", str(src)) == (0, f"{src}\n  overall: Verified\n", "")
    src.write_text("class A {} class R {"
                   " void f(int n) { requires(n >= 0); memreq<A>(n);"
                   " for (i = 1 .. n) { A a = new A(); } if (n > 0) { this.g(n - 1); } }"
                   " void g(int k) { requires(k >= 0); this.f(k); } }")
    code, out, err = cli("check", str(src), "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["clauses"] == [
        {"method": "R.f", "clause": "memreq<A>", "declared": "n", "computed": "n",
         "verdict": "Verified", "proof": "coefficient",
         "notes": ["assume-guarantee: recursive calls use their declared contracts"]},
        {"method": "R.g", "clause": "memreq<A>", "declared": None, "computed": "k",
         "verdict": "Violated", "witness": {"k": 1},
         "notes": ["undeclared consumption: objects of A are consumed but no bound"
                   " is declared"]}]


def test_check_json_deterministic():
    runs = [cli("check", "--format", "json", corpus("bigfamily"))
            for _ in range(2)]
    assert runs[0] == runs[1]


# ------------------------------------------------------------ usage errors


def test_unknown_command_exits_three():
    code, _, err = cli("frobnicate")
    assert code == 3
    assert "error:" in err


def test_bad_flag_value_exits_three():
    code, _, _ = cli("check", "--mode", "sideways", corpus("family"))
    assert code == 3


def test_no_command_exits_three():
    code, _, _ = cli()
    assert code == 3


# ------------------------------------------------------------ instrument


def test_instrument_to_stdout():
    code, out, _ = cli("instrument", corpus("callpair"))
    assert code == 0
    assert "m_MemReq_A += 1;" in out
    assert "ensure(m_MemReq_A <= n + 5);" in out


def test_instrument_emit_writes_checkable_source(tmp_path):
    target = tmp_path / "fam_inst.mcl"
    code, out, _ = cli("instrument", corpus("family"), "--emit", str(target))
    assert code == 0
    assert out == ""
    assert "CreateFamily_MemReq_Person" in target.read_text()
    code, out, _ = cli("check", str(target))
    assert code == 0
    assert "overall: Verified" in out


def test_instrument_emit_to_a_missing_directory_is_io_error(tmp_path):
    target = tmp_path / "missing" / "x.mcl"
    code, out, err = cli("instrument", corpus("family"), "--emit", str(target))
    assert (code, out) == (3, "")
    diag = json.loads(err)
    assert (diag["code"], diag["file"]) == ("io-error", str(target))


# ------------------------------------------------------------ run


def test_run_human_reports_measurements():
    argv = ("run", corpus("family"), "--entry", "Family.CreateFamily",
            "--args", '["Doe", ["a", "b", "c"]]')
    code, out, _ = cli(*argv)
    assert code == 0
    assert "measured Family.CreateFamily@1: " in out
    assert "Person=3" in out
    assert "return value:" in out
    # one line per trace event, saying what the JSON trace says
    trace = json.loads(cli(*argv, "--format", "json")[1])["trace"]
    lines = []
    for ev in trace:
        if ev["event"] == "alloc":
            lines.append(f"alloc    oid={ev['oid']} {ev['class']} weight={ev['weight']}"
                         f" at {ev['site']} by {ev['by']}")
        elif ev["event"] == "reclaim":
            lines.append(f"reclaim  oid={ev['oid']}")
        else:
            lines.append(f"{ev['event']:<8} {ev['instance']}")
    assert out.splitlines()[:len(lines)] == lines
    assert lines[:2] == ["alloc    oid=1 string[] weight=3 at <harness> by <harness>@0",
                         "call     Family.CreateFamily@1"]
    assert {line.split()[0] for line in lines} == {"alloc", "call", "ret", "reclaim"}


def test_run_human_prints_the_return_value_as_json(tmp_path):
    path = tmp_path / "values.mcl"
    path.write_text("""class T {
}

class P {
    bool yes() {
        return true;
    }

    string quoted() {
        return "a\\"b\u00e9";
    }

    T make() {
        T t = new T();
        return t;
    }

    void none() {
    }
}
""")
    for entry, line in [("P.yes", "true"), ("P.quoted", '"a\\"b\\u00e9"'),
                        ("P.make", '{"$ref": 1}'), ("P.none", "null")]:
        code, out, _ = cli("run", str(path), "--entry", entry)
        assert code == 0
        assert out.splitlines()[-1] == f"return value: {line}"
        as_json = json.loads(cli("run", str(path), "--entry", entry, "--format", "json")[1])
        assert json.loads(line) == as_json["returnValue"]


def test_run_json_trace_events():
    code, out, _ = cli("run", corpus("family"), "--format", "json",
                       "--entry", "Person.Person",
                       "--args", '["Ann", "Lee"]')
    assert code == 0
    data = json.loads(out)
    assert data["returnValue"] == {"$ref": 1}
    kinds = {ev["event"] for ev in data["trace"]}
    assert kinds == {"call", "ret", "alloc", "reclaim"}
    assert data["assertionFailures"] == []


def test_run_respects_gc_flag():
    argv = ("run", corpus("callpair"), "--format", "json",
            "--entry", "A.m", "--args", "[3]")
    peak = {}
    for gc in ("ideal", "method-exit"):
        code, out, _ = cli(*argv, "--gc", gc)
        assert code == 0
        data = json.loads(out)
        obs = data["observations"][-1]
        peak[gc] = obs["peakLive"]["A"]
    assert peak == {"ideal": 5, "method-exit": 6}


def test_run_missing_entry_is_usage_error():
    code, _, err = cli("run", corpus("family"),
                       "--entry", "Family.NoSuch", "--args", "[]")
    assert code == 3
    assert "no such method" in err


def test_run_malformed_args_is_usage_error():
    code, _, err = cli("run", corpus("family"),
                       "--entry", "Person.Person", "--args", "not json")
    assert code == 3
    assert "--args" in err


def test_run_args_must_be_an_array():
    code, _, err = cli("run", corpus("family"),
                       "--entry", "Person.Person", "--args", '{"a": 1}')
    assert code == 3


def test_run_rejected_precondition_is_usage_error():
    code, _, err = cli("run", corpus("callpair"),
                       "--entry", "A.m", "--args", "[0]")
    assert code == 3
    assert "precondition" in err


def test_run_null_receiver_is_runtime_error():
    code, _, err = cli("run", corpus("family"),
                       "--entry", "Family.AddMember", "--args", '["Ann"]')
    assert code == 1
    assert "NullDereference" in err


def test_run_requires_over_a_null_receiver_field_is_runtime_error(tmp_path):
    src = tmp_path / "nullf.mcl"
    src.write_text("class P { int f; void g(int n) { requires(n <= this.f); } }")
    code, out, err = cli("run", str(src), "--entry", "P.g", "--args", "[0]")
    assert (code, out, err) == (1, "", "runtime error: NullDereference: null dereference\n")


def test_check_and_validate_read_requires_division_alike(tmp_path):
    # `/` in a contract is exact, so n / 2 <= 0 admits n = 0 alone; the
    # oracle must not read it as MCL's truncating division, which admits 1
    src = tmp_path / "half.mcl"
    src.write_text("""
    class A { A() { } }
    class P {
        void f(int n) {
            requires(n / 2 <= 0);
            memreq<A>(0);
            for (i = 1 .. n) { A a = new A(); }
        }
    }
    """)
    code, out, _ = cli("check", str(src), "--format", "json")
    assert code == 0
    assert [r["verdict"] for r in json.loads(out)["clauses"]] == ["Verified"]
    code, out, _ = cli("validate", str(src), "--format", "json")
    report = json.loads(out)
    assert code == 0 and not report["violations"]
    assert (report["runs"], report["pointsSkipped"]) == (1, 8)


def test_run_instrumented_faulty_fails_ensures(tmp_path):
    target = tmp_path / "low_inst.mcl"
    assert cli("instrument", corpus("faulty_low_bound"),
               "--emit", str(target))[0] == 0
    code, out, _ = cli("run", str(target),
                       "--entry", "Family.CreateFamily",
                       "--args", '["Doe", ["a", "b"]]')
    assert code == 1
    assert "ENSURE FAILED" in out


# ------------------------------------------------------------ ptg


def test_ptg_stdout_contains_digraphs():
    code, out, _ = cli("ptg", corpus("family"))
    assert code == 0
    assert 'digraph "Family.AddMember"' in out
    assert 'digraph "Family.CreateFamily"' in out


def test_ptg_dot_dir_writes_per_method_files(tmp_path):
    outdir = tmp_path / "graphs"
    code, out, _ = cli("ptg", corpus("family"), "--dot", str(outdir))
    assert code == 0
    names = sorted(p.name for p in outdir.glob("*.dot"))
    assert "Family.AddMember.dot" in names
    assert "Person.Person.dot" in names
    text = (outdir / "Family.AddMember.dot").read_text()
    assert "_members" in text


@pytest.mark.parametrize("blocked", ["dir", "file"])
def test_ptg_dot_to_an_unwritable_path_is_io_error(tmp_path, blocked):
    if blocked == "dir":  # the directory cannot be made under a plain file
        (tmp_path / "plain").write_text("")
        outdir = tmp_path / "plain" / "graphs"
        culprit = outdir
    else:  # a directory sits where one .dot file should go
        outdir = tmp_path / "graphs"
        culprit = outdir / "Family.AddMember.dot"
        culprit.mkdir(parents=True)
    code, out, err = cli("ptg", corpus("family"), "--dot", str(outdir))
    assert (code, out) == (3, "")
    diag = json.loads(err)
    assert (diag["code"], diag["file"]) == ("io-error", str(culprit))


def test_ptg_json_maps_method_to_dot():
    code, out, _ = cli("ptg", corpus("family"), "--format", "json")
    data = json.loads(out)
    assert set(data) == {"Logger.logMessage", "Person.Person",
                         "Family.Family", "Family.AddMember",
                         "Family.CreateFamily"}
    assert all(v.startswith("digraph") for v in data.values())


# ------------------------------------------------------------ validate


def test_validate_clean_corpus_exits_zero():
    code, out, _ = cli("validate", corpus("family"), "--grid", "3")
    assert code == 0
    assert "clean" in out


def test_validate_faulty_exits_one_and_names_the_clause():
    code, out, _ = cli("validate", corpus("faulty_low_bound"), "--grid", "3")
    assert code == 1
    assert "VIOLATED" in out
    assert "memreq<Person>" in out
    assert "observed" in out


def test_validate_json_report():
    code, out, _ = cli("validate", corpus("faulty_zero_esc"),
                       "--grid", "2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["violations"]
    assert data["runs"] > 0


def test_validate_reports_a_failed_clause_once():
    code, out, _ = cli("validate", corpus("faulty_zero_esc"), "--format", "json")
    assert code == 1
    data = json.loads(out)
    [v] = data["violations"]
    assert (v["method"], v["clause"]) == ("Family.AddMember", "esc<Person>(this)")
    assert (v["activations"], v["runs"]) == (332, 80)
    assert v["trace"] and out.count('"trace"') == 1


def test_validate_human_output_has_one_line_per_failed_clause(tmp_path):
    code, out, _ = cli("validate", corpus("faulty_zero_esc"))
    assert code == 1
    [line] = [ln for ln in out.splitlines() if ln.startswith("VIOLATED")]
    assert line.endswith("; 332 activations in 80 runs")

    inst = tmp_path / "zero_esc.inst.mcl"
    assert cli("instrument", corpus("faulty_zero_esc"), "--emit", str(inst))[0] == 0
    code, out, _ = cli("validate", str(inst))
    assert code == 1
    [line] = [ln for ln in out.splitlines() if ln.startswith("ENSURE FAILED")]
    assert line.endswith("; 332 activations in 80 runs")


def test_validate_grid_flag_bounds_the_sweep():
    code, out, _ = cli("validate", corpus("callpair"),
                       "--grid", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    # preconditions carve four points out of the 0..2 grid
    assert data["runs"] == 5
    assert data["pointsSkipped"] == 4


def test_validate_negative_grid_is_usage_error():
    code, out, err = cli("validate", corpus("family"), "--grid", "-1")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "--grid" in err


def test_validate_precondition_aborts_reported():
    code, out, _ = cli("validate", corpus("faulty_precondition_skip"),
                       "--grid", "3")
    assert code == 1
    assert "REQUIRES ABORT" in out
    assert "Feeder.need" in out


def test_validate_names_an_entry_without_variables(tmp_path):
    path = tmp_path / "novars.mcl"
    path.write_text("class A { } class P { void f() { memreq<A>(0); A a = new A(); } }")
    assert cli("validate", str(path)) == (1, (
        "VIOLATED  P.f memreq<A>: declared 0 = 0, observed 1 (entry (no variables));"
        " 1 activations in 1 runs\n"
        "1 runs, 0 grid points outside preconditions: NOT clean\n"), "")
    code, out, _ = cli("validate", str(path), "--format", "json")
    assert code == 1 and json.loads(out)["violations"][0]["entryEnv"] == {}


# ------------------------------------------------------------ deep call chains


def test_long_call_chain_needs_no_deep_python_stack(tmp_path):
    # m0 calls m1 calls ... m1199: deeper than the interpreter's recursion
    # limit, so any per-call recursion in the analyses would raise
    n = 1200
    body = "\n".join(f"  void m{i}() {{ {f'm{i + 1}();' if i + 1 < n else ''} }}"
                     for i in range(n))
    path = tmp_path / "chain.mcl"
    path.write_text(f"class C {{\n{body}\n}}\n")
    for command in ("check", "ptg"):
        code, out, err = cli(command, str(path))
        assert code == 0, (command, err)
        assert err == ""
        assert "Traceback" not in out
    code, out, _ = cli("ptg", "--format", "json", str(path))
    assert code == 0
    assert len(json.loads(out)) == n


def test_chain_check_and_ptg_are_byte_identical_whatever_the_hash_seed(tmp_path):
    path = tmp_path / "relay.mcl"
    path.write_text(relay_chain(40))
    for argv in (("check", str(path), "--format", "json"),
                 ("ptg", str(path), "--format", "json")):
        runs = [run_module(*argv, hash_seed=seed) for seed in ("1", "77")]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr == ""


def test_load_replay_is_the_same_whatever_the_hash_seed():
    # CreateFamily inlines AddMember's summary, whose load nodes replay
    # against CreateFamily's graph as it stands: the edge order decides
    # whether a load finds a target or makes a new node
    outs = {}
    for command in ("ptg", "check"):
        runs = [run_module(command, corpus("family"), "--format", "json", hash_seed=seed)
                for seed in ("1", "2")]
        assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr == ""
        outs[command] = runs[0].stdout
    golden = CORPUS.parent / "tests" / "golden" / "family.ptg.dot"
    assert "\n".join(json.loads(outs["ptg"]).values()) + "\n" == golden.read_text()


# ------------------------------------------------------------ run arguments


OUT_FIRST = """class A {
}

class P {
    void f(out A x, int n) {
        x = null;
    }

    void g(int[] xs, A[] as) {
    }
}
"""


def test_run_args_bind_to_in_parameters_only(tmp_path):
    path = tmp_path / "outfirst.mcl"
    path.write_text(OUT_FIRST)
    code, out, err = cli("run", str(path), "--entry", "P.f",
                         "--args", "[3]", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["observations"][0]["entryEnv"] == {"n": 3}


# MCL arrays have one dimension, so P.g's elements bind only as plain
# values or null, and a fresh array references nothing.
@pytest.mark.parametrize("entry, args, names", [
    ("P.f", "[null, 3]", "one per in-parameter (n); got 2"),
    ("P.f", '["x"]', "argument n must be int"),
    ("P.g", "[[[1]], []]", "argument xs[0] must be int"),
    ("P.g", "[[1], [[]]]", "argument as[0] must be A"),
], ids=["[null, 3]-one per in-parameter (n); got 2", '["x"]-argument n must be int',
        "[[[1]], []]-argument xs[0] must be int", "[[1], [[]]]-argument as[0] must be A"])
def test_run_args_that_do_not_fit_are_usage_errors(tmp_path, entry, args, names):
    path = tmp_path / "outfirst.mcl"
    path.write_text(OUT_FIRST)
    code, out, err = cli("run", str(path), "--entry", entry, "--args", args)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and names in err


# ------------------------------------------------ limits become diagnostics


def test_run_past_the_interpreter_stack_is_inconclusive():
    code, out, err = cli("run", corpus("listbuild"), "--entry", "Node.build",
                         "--args", "[250]", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("inconclusive: ") and "StackExhausted" in err


def test_array_length_counts_against_the_step_budget(tmp_path):
    path = tmp_path / "big.mcl"
    path.write_text("class T {\n}\n\nclass P {\n    void f(int n) {\n"
                    "        T[] a = new T[n];\n    }\n}\n")
    start = time.perf_counter()
    code, out, err = cli("run", str(path), "--entry", "P.f", "--args", "[1000000000000]")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("inconclusive: ") and "StepBudgetExceeded" in err


def test_instrument_under_deeply_nested_ifs(tmp_path):
    body = "T t = new T();"
    for k in range(250):
        body = f"if (n > {k}) {{ {body} }}"
    path = tmp_path / "deep.mcl"
    path.write_text("class T {\n}\n\nclass P {\n    void f(int n) {\n"
                    f"        memreq<T>(1);\n        {body}\n    }}\n}}\n")
    code, out, err = cli("instrument", str(path))
    assert (code, err) == (0, "")
    assert "ensure(" in out


def test_parenthesis_nesting_past_the_parser_stack_is_a_syntax_error(tmp_path):
    path = tmp_path / "parens.mcl"
    expr = "(" * 600 + "n" + ")" * 600
    path.write_text(f"class P {{\n    int f(int n) {{\n        int x = {expr};\n"
                    "        return x;\n    }\n}\n")
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, out) == (3, "")
    diag = json.loads(err.splitlines()[0])
    assert diag["code"] == "SyntaxError" and diag["line"] == 3


@pytest.mark.parametrize("command", [
    ["check", "--format", "json"],
    ["instrument"],
    ["run", "--entry", "P.f", "--args", "[1]", "--format", "json"],
    ["validate", "--format", "json"],
    ["ptg", "--format", "json"],
], ids=lambda c: c[0])
def test_an_operator_chain_past_the_resolver_stack_is_a_diagnostic(tmp_path, command):
    # the parser reads a chain in a loop, but resolution recurses once per
    # operator; past Python's stack that is an error at the method
    path = tmp_path / "chain.mcl"
    path.write_text("class P {\n    int f(int n) {\n        requires(n >= 0);\n"
                    f"        int x = {' + '.join(['n'] * 1200)};\n        return x;\n    }}\n}}\n")
    code, out, err = cli(command[0], str(path), *command[1:])
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    diag = json.loads(line)
    assert (diag["code"], diag["line"], diag["col"]) == ("nesting-too-deep", 2, 5)
    assert diag["message"] == "P.f: an expression nests too deeply to resolve"


def test_a_non_decimal_digit_is_a_lex_error(tmp_path):
    # "²" passes str.isdigit but not int(); it is no digit of the language
    path = tmp_path / "digit.mcl"
    path.write_text("class P {\n    int f(int n) {\n        int x = ²;\n"
                    "        return x;\n    }\n}\n")
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, out) == (3, "")
    diag = json.loads(err.splitlines()[0])
    assert (diag["code"], diag["line"], diag["col"]) == ("LexError", 3, 17)
    assert diag["message"] == "unexpected character '²'"


def test_loop_nest_past_the_degree_cap_is_inconclusive(tmp_path):
    depth = 5
    loops = "".join(f"for (i{k} = 1 .. n) {{ " for k in range(depth))
    path = tmp_path / "nest.mcl"
    path.write_text(
        "class A {\n}\n\nclass P {\n    void f(int n) {\n"
        f"        requires(n >= 0);\n        memreq<A>({' * '.join(['n'] * depth)});\n"
        f"        {loops}A a = new A();{' }' * depth}\n    }}\n}}\n")
    code, out, err = cli("check", str(path), "--format", "json")
    assert json.loads(out) == {"file": str(path), "overall": "Unverified", "clauses": [
        {"method": "P.f", "clause": "memreq<A>", "declared": "n*n*n*n*n", "computed": "0",
         "verdict": "Unverified", "reason": "analysis incomplete: degree-cap"}]}
    assert (code, err) == (2, f"inconclusive: {path}: 1 of 1 clauses unverified"
                              " (first: P.f memreq<A>: analysis incomplete: degree-cap)\n")


MAXCAP = ("class A {} class B {} class P {"
          " void g(int k) { requires(k >= 0); memreq<A>(k); for (i = 1 .. k) { A a = new A(); } }"
          " void f(int n) { requires(n >= 0); memreq<A>(n*n*n*n*n); memreq<B>(n);"
          " for (i = 1 .. n) { this.g(i*i*i*i*i); } for (j = 1 .. n) { B b = new B(); } } }")


def test_a_loop_past_the_degree_cap_leaves_only_its_classes_unverified(tmp_path):
    # the loop of calls maximizes i^5 over 1..n, past the cap; the loop of
    # B's and the callee are decided as ever
    path = tmp_path / "maxcap.mcl"
    path.write_text(MAXCAP)
    note = (f"inconclusive: {path}: 1 of 3 clauses unverified"
            " (first: P.f memreq<A>: analysis incomplete: degree-cap)\n")
    assert cli("check", str(path)) == (2, (
        f"{path}\n"
        "  Unverified  P.f  memreq<A>  declared n*n*n*n*n  computed 0\n"
        "              reason: analysis incomplete: degree-cap\n"
        "  Verified    P.f  memreq<B>  declared n  computed n\n"
        "  Verified    P.g  memreq<A>  declared k  computed k\n"
        "  overall: Unverified\n"), note)
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, err) == (2, note)
    assert [(r["method"], r["clause"], r["verdict"], r.get("reason"))
            for r in json.loads(out)["clauses"]] == [
        ("P.f", "memreq<A>", "Unverified", "analysis incomplete: degree-cap"),
        ("P.f", "memreq<B>", "Verified", None),
        ("P.g", "memreq<A>", "Verified", None)]


def _poly_text(terms):
    """A polynomial over n and m from (coefficient, n's exponent, m's
    exponent) terms, written as MCL."""
    return " + ".join(" * ".join([str(c)] + ["n"] * a + ["m"] * b) for c, a, b in terms) or "0"


# no clause, a random polynomial, or a power of n + m + 3, which holds
# often enough that some files are verified and then validated
_powers = st.integers(1, 8).map(lambda k: " * ".join(["(n + m + 3)"] * k))
_bounds = (st.none()
           | st.lists(st.tuples(st.integers(-2, 3), st.integers(0, 3), st.integers(0, 3)),
                      max_size=3).map(_poly_text)
           | _powers | _powers)


# a nest of one to six loops, degree-cap included, and self or mutual
# recursion, in methods with and without clauses, on the class or on the
# object
_keys = st.sampled_from(["A", "object"])
VERDICT_FILES = dict(
    headers=st.lists(st.sampled_from(["n", "m", "2", "n + 1", "outer"]), min_size=1, max_size=6),
    calls=st.sampled_from(["none", "self", "mutual"]),
    f_bound=_bounds, g_bound=_bounds, g_allocates=st.booleans(), f_key=_keys, g_key=_keys)


def _verdict_file(headers, calls, f_bound, g_bound, g_allocates, f_key, g_key) -> str:
    loops = ""
    for k, hi in enumerate(headers):
        hi = f"i{k - 1}" if hi == "outer" and k else "n" if hi == "outer" else hi
        loops += f"for (i{k} = 1 .. {hi}) {{ "
    nest = f"{loops}A a = new A();{' }' * len(headers)}"
    callee = {"none": None, "self": "f", "mutual": "g"}[calls]
    call = f"if (n > 0) {{ this.{callee}(n - 1, m); }}" if callee else ""
    g_call = "if (n > 0) { this.f(n - 1, m); }" if calls == "mutual" else ""

    def clause(bound, key):
        return "" if bound is None else f"memreq<{key}>({bound});"

    return ("class A {} class R {"
            f" void f(int n, int m) {{ requires(n >= 0 && m >= 0); {clause(f_bound, f_key)}"
            f" {nest} {call} }}"
            f" void g(int n, int m) {{ requires(n >= 0 && m >= 0); {clause(g_bound, g_key)}"
            f" {'A b = new A();' if g_allocates else ''} {g_call} }} }}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**VERDICT_FILES)
def test_check_ends_every_file_with_a_verdict(tmp_path_factory, **drawn):
    # `check` answers 0, 1 or 2 and never stops; a file it verifies holds
    # on the grid.  The property is file-level, since a Verified row
    # assumes its callees' contracts.
    path = tmp_path_factory.mktemp("verdict") / "verdict.mcl"
    path.write_text(_verdict_file(**drawn))
    code, out, err = cli("check", str(path))
    assert code in (0, 1, 2), err
    if code == 0:
        code, out, err = cli("validate", str(path), "--grid", "2")
        assert (code, err) == (0, ""), path.read_text()
        assert out.endswith(": clean\n")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**VERDICT_FILES)
def test_check_instrument_and_validate_read_one_obligation_list(**drawn):
    # every bound row of `check` is an obligation in its mode, and the copy
    # ensures and counts, and the oracle bounds, exactly the obligations of
    # the type mode, object clauses included; a declared object clause reads
    # alike in both modes
    prog = load(_verdict_file(**drawn), "verdict.mcl")
    inst = instrument(prog)
    read = {}
    for mode in ("type", "object"):
        rows = check_program(prog, mode).rows
        read[mode] = {(r.method, r.clause): (r.computed, r.verdict.to_json()) for r in rows}
        for m in prog.methods():
            assert {r.clause for r in rows if r.method == m.qname
                    and r.clause.startswith(("memreq<", "esc<"))} \
                <= {c.label for c in (collapsed if mode == "object" else list)(obligations(m))}
    for k in [(m.qname, c.label) for m in prog.methods() for c in m.contract.clauses() if c.whole]:
        assert read["type"][k] == read["object"][k]
    for m in prog.methods():
        clauses = obligations(m)
        labels = [c.label for c in clauses]
        body = inst.program.method(m.qname).body
        assert len([s for s in body if isinstance(s, EnsureStmt)]) == len(labels)
        assert {(i.tag, i.cls) for i in inst.counter_index.values()
                if i.method == m.qname and i.kind in (KIND_MEMREQ, KIND_ESC)} == \
            {(c.tag and c.tag.name, c.key) for c in clauses}
        assert [b.clause for b in oracle._table(prog).method(m).bounds] == labels


# a class or a user tag that takes a name the key or tag space counts by:
# `check` verified each and `validate` refuted it before the name was
# reserved
RESERVED = {
    # memreq<object> counted the class `object` twice in the oracle
    "class-object": "class object { } class P { void f() { memreq<object>(1);"
                    " object o = new object(); } }",
    # the oracle keys each exit root by its tag's name, so bind_esc(Return,
    # this.h) took the place of the return value's root
    "tag-Return": "class A { A next; } class P { A h; A f() { memreq<A>(3);"
                  " esc<A>(Return, 2); esc<A>(return, 1); bind_esc(Return, this.h);"
                  " dest_esc(Return); A a = new A(); this.h = a;"
                  " dest_esc(Return); A b = new A(); a.next = b;"
                  " dest_esc(return); A c = new A(); return c; } }",
    "tag-This": "class A { A next; } class P { A h; void f() { memreq<A>(2);"
                " esc<A>(This, 1); esc<A>(this, 1); bind_esc(This, this.h);"
                " dest_esc(This); A a = new A(); this.h = a;"
                " dest_esc(this); A b = new A(); a.next = b; } }",
}


@pytest.mark.parametrize("name", sorted(RESERVED))
def test_a_name_the_key_and_tag_spaces_count_by_is_reserved(tmp_path, name):
    path = tmp_path / f"{name}.mcl"
    path.write_text(RESERVED[name])
    for command in ("check", "validate", "instrument"):
        code, out, err = cli(command, str(path))
        assert (code, out) == (3, "")
        assert [json.loads(line)["code"] for line in err.splitlines()] == ["reserved-name"]


# what a method charges but does not declare, and the counter whose ensure
# holds it to zero in the copy
UNDECLARED = {
    "callee-only": ("class A { } class B { } class P {"
                    " void g() { memreq<A>(1); A a = new A(); }"
                    " void f() { memreq<B>(0); this.g(); } }", "memreq<A>", "f_MemReq_A"),
    "dest-esc": ("class A { } class P {"
                 " A f() { memreq<A>(1); dest_esc(return); A a = new A(); return a; } }",
                 "esc<A>(return)", "f_Esc_Return_A"),
    "add-esc": ("class A { } class P {"
                " A g() { memreq<A>(1); esc<A>(return, 1); dest_esc(return); A a = new A();"
                " return a; }"
                " A f() { memreq<A>(1); add_esc(return, return); A x = this.g(); return x; } }",
                "esc<A>(return)", "f_Esc_Return_A"),
    "no-clauses": ("class A { } class P { void f() { A a = new A(); } }",
                   "memreq<A>", "f_MemReq_A"),
}


@pytest.mark.parametrize("name", sorted(UNDECLARED))
def test_an_absent_clause_is_zero_for_check_instrument_and_validate(tmp_path, name):
    text, label, counter = UNDECLARED[name]
    path, copy = tmp_path / f"{name}.mcl", tmp_path / f"{name}.inst.mcl"
    path.write_text(text)
    f = load(text, name).method("P.f")
    assert [c.label for c in obligations(f) if not c.declared] == [label]
    code, out, _ = cli("check", str(path), "--format", "json")
    assert code == 1
    assert {(r["clause"], r["declared"], r["verdict"])
            for r in json.loads(out)["clauses"] if r["method"] == "P.f"} >= {
        (label, None, "Violated")}
    assert cli("instrument", str(path), "--emit", str(copy))[0] == 0
    assert f"ensure({counter} <= 0);" in copy.read_text()
    for gc in ("ideal", "method-exit"):
        code, out, _ = cli("validate", str(path), "--format", "json", "--gc", gc)
        assert code == 1
        assert ("P.f", label, 0) in {(v["method"], v["clause"], v["declaredValue"])
                                     for v in json.loads(out)["violations"]}
        code, out, _ = cli("validate", str(copy), "--format", "json", "--gc", gc)
        assert code == 1
        assert f"{counter} <= 0" in {e["cond"] for e in json.loads(out)["ensureFailures"]}


@pytest.mark.parametrize("source, modes, checked, observed, failed", [
    (MIXED_VIEWS, ("type", "object"), {("P.f", "esc<object>(return)"): 1}, None,
     ["f_Esc_Return_object <= 0"]),
    # object mode reads f's memreq as its object clause alone, which holds
    (HIDDEN_CLASS, ("type",), {("P.f", "memreq<A>"): 1}, None, ["f_MemReq_A <= 0"]),
    # g's object bound is also charged to the A that f bounds, which g may
    # hide, so `check` and the copy refute memreq<A> where the oracle,
    # counting A alone, observes 1
    (UNDECLARED_OBJECT, ("type",), {("P.f", "memreq<object>"): 2, ("P.f", "memreq<A>"): 2},
     {("P.f", "memreq<object>"): 2}, ["f_MemReq_A <= 1", "f_MemReq_object <= 0"])],
    ids=["mixed-views", "hidden-class", "undeclared-object"])
def test_check_the_copy_and_validate_refute_one_clause_at_one_value(
        tmp_path, source, modes, checked, observed, failed):
    # f's clause is violated at one value wherever it is read: by `check`,
    # by the copy's ensure and as the oracle observes it under both
    # collectors (`observed` when the oracle sees fewer rows than `check`)
    path, copy = tmp_path / "f.mcl", tmp_path / "f.inst.mcl"
    path.write_text(source)
    for mode in modes:
        code, out, _ = cli("check", str(path), "--mode", mode, "--format", "json")
        assert code == 1
        assert {(r["method"], r["clause"]): int(r["computed"]) for r in
                json.loads(out)["clauses"] if r["verdict"] == "Violated"} == checked
    assert cli("instrument", str(path), "--emit", str(copy))[0] == 0
    for gc in ("ideal", "method-exit"):
        for target in (path, copy):
            code, out, _ = cli("validate", str(target), "--format", "json", "--gc", gc)
            report = json.loads(out)
            assert code == 1
            assert {(v["method"], v["clause"]): v["observed"]
                    for v in report["violations"]} == (observed or checked)
            assert [e["cond"] for e in report["ensureFailures"]] == \
                ([] if target == path else failed)


def test_a_call_in_a_loop_nest_is_charged_one_headroom_by_check_and_the_copy(tmp_path):
    # g's temporaries die when it returns, so f's loop nest maxes g's
    # headroom at every depth: `check` proves m, and neither the oracle nor
    # the copy's ensure sees more
    path, copy = tmp_path / "f.mcl", tmp_path / "f.inst.mcl"
    path.write_text(NESTED_CALL)
    code, out, _ = cli("check", str(path), "--format", "json")
    assert code == 0
    assert {(r["method"], r["clause"]): (r["computed"], r["verdict"])
            for r in json.loads(out)["clauses"]} == {
        ("P.f", "memreq<A>"): ("m", "Verified"), ("P.g", "memreq<A>"): ("k", "Verified")}
    assert cli("instrument", str(path), "--emit", str(copy))[0] == 0
    for gc in ("ideal", "method-exit"):
        for target in (path, copy):
            code, out, _ = cli("validate", str(target), "--grid", "4", "--gc", gc,
                               "--format", "json")
            report = json.loads(out)
            assert code == 0, (target, gc)
            assert (report["violations"], report["ensureFailures"]) == ([], [])


def test_check_and_validate_read_one_object_view_of_a_tag():
    # the object view of g's `return` is the sum of its class clauses, 1, so
    # f's 0 is violated and g's holds; an object clause covers the classes
    # of its tag, so no reader holds g's A to zero under memreq, nor any
    # class of f's
    prog = load(MIXED_VIEWS, "mixed")
    assert {m.qname: [c.label for c in obligations(m)] for m in prog.methods()} == {
        "P.g": ["memreq<object>", "esc<A>(return)"],
        "P.f": ["memreq<object>", "esc<object>(return)"]}
    for mode in ("type", "object"):
        rows = check_program(prog, mode).rows
        assert [r.clause for r in rows if r.method == "P.f"] == \
            ["memreq<object>", "esc<object>(return)"]
        assert "memreq<A>" not in {r.clause for r in rows}
    assert {s.cond.left.name for m in instrument(prog).program.methods()
            for s in m.body if isinstance(s, EnsureStmt)} == {
        "g_MemReq_object", "g_Esc_Return_A", "f_MemReq_object", "f_Esc_Return_object"}


@pytest.fixture
def unlimited_digits():
    """Python's int-string limit lifted, as `main` lifts it, for a test that
    prints a number of thousands of digits itself."""
    before = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    if before:
        sys.set_int_max_str_digits(0)
    yield
    if before:
        sys.set_int_max_str_digits(before)


def test_a_call_bound_at_a_huge_multiple_is_charged_exactly(hostile_files, unlimited_digits):
    # g(M * n) charges g's quintic bound at M * n: M ** 5 * n ** 5, of 5,000 digits
    path, big = hostile_files["huge-call"], int(HUGE_M) ** 5
    code, out, err = cli("check", path)
    assert (code, err) == (1, "")
    assert (f"  Violated    P.f  memreq<A>  declared n  computed {big}*n*n*n*n*n\n"
            "              witness: n=1\n") in out
    code, out, err = cli("instrument", path)
    assert (code, err) == (0, "")
    assert f"int call_diff_A = ({big} * (n * n * n * n * n)) - 0;\n" in out


def test_a_max_bound_plus_a_constant_reads_as_declared(tmp_path):
    path = tmp_path / "maxplus.mcl"
    path.write_text("class A {} class P { void f(int n) { requires(n >= 0);"
                    " memreq<A>(max(n*n*n*n, n) + 1); A a = new A(); } }")
    assert cli("check", str(path)) == (0, (
        f"{path}\n"
        "  Verified    P.f  memreq<A>  declared max(n + 1, n*n*n*n + 1)  computed 1\n"
        "  overall: Verified\n"), "")
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "file": str(path), "overall": "Verified",
        "clauses": [{"method": "P.f", "clause": "memreq<A>", "verdict": "Verified",
                     "proof": "coefficient", "declared": "max(n + 1, n*n*n*n + 1)",
                     "computed": "1"}]}


@pytest.mark.parametrize("clause, body, flag", [
    ("memreq<A>(n)", "for (i = 1 .. max(n, 1)) { A a = new A(); }", "no-loop-range"),
    ("memreq<A[]>(n)", "A[] a = new A[max(n, 1)];", "unanalyzable-arg"),
    ("memreq<A>(n)", "this.g(max(n, 1));", "unanalyzable-arg"),
], ids=["loop-header", "array-length", "call-argument"])
def test_a_max_in_the_body_leaves_its_clause_unverified(tmp_path, clause, body, flag):
    # a body expression is no contract: a max there is read as no polynomial
    path = tmp_path / "maxbody.mcl"
    path.write_text("class A {} class P {"
                    " void g(int n) { requires(n >= 0); memreq<A>(n);"
                    " for (i = 1 .. n) { A a = new A(); } }"
                    f" void f(int n) {{ requires(n >= 0); {clause}; {body} }} }}")
    code, out, err = cli("check", str(path))
    key = clause[len("memreq<"):clause.index(">")]
    assert code == 2
    assert (f"  Unverified  P.f  memreq<{key}>  declared n  computed 0\n"
            f"              reason: analysis incomplete: {flag}\n") in out
    assert err == (f"inconclusive: {path}: 1 of {out.count('  declared ')} clauses unverified"
                   f" (first: P.f memreq<{key}>: analysis incomplete: {flag})\n")


EVERY_COMMAND = (["check"], ["instrument"], ["ptg"], ["validate", "--grid", "2"],
                 ["run", "--entry", "P.f", "--args", "[2]"])


def test_a_max_bound_past_the_degree_cap_is_read_by_every_command(tmp_path):
    # a declared bound is read at any degree: the cap is for closed forms
    path = tmp_path / "maxdeg5.mcl"
    path.write_text("class A {} class P { void f(int n) { requires(n >= 0);"
                    " memreq<A>(max(n*n*n*n*n, 1) + 1); A a = new A(); } }")
    for argv in EVERY_COMMAND:
        code, out, err = cli(argv[0], str(path), *argv[1:])
        assert (code, err) == (0, ""), argv
    assert "Verified    P.f  memreq<A>  declared max(n*n*n*n*n + 1, 2)  computed 1\n" \
        in cli("check", str(path))[1]


def test_instrument_reads_an_escape_bound_past_the_degree_cap(tmp_path):
    path = tmp_path / "escdeg5.mcl"
    path.write_text("class A {} class P { A f(int n) { requires(n >= 0);"
                    " esc<A>(return, n*n*n*n*n); A a = new A(); return a; } }")
    code, out, err = cli("instrument", str(path))
    assert (code, err) == (0, "")
    assert "ensure(f_Esc_Return_A <= n * n * n * n * n);" in out


def test_a_call_may_bind_a_contract_past_the_degree_cap(tmp_path):
    # g's cubic bound at n*n is of degree 6; nothing sums or maximizes it
    path = tmp_path / "calldeg6.mcl"
    path.write_text("class A {} class P {"
                    " void g(int n) { requires(n >= 0); memreq<A>(n*n*n);"
                    " for (i = 1 .. n*n*n) { A a = new A(); } }"
                    " void f(int n) { requires(n >= 0); memreq<A>(n*n*n*n*n*n); this.g(n*n); } }")
    assert cli("check", str(path)) == (0, (
        f"{path}\n"
        "  Verified    P.f  memreq<A>  declared n*n*n*n*n*n  computed n*n*n*n*n*n\n"
        "  Verified    P.g  memreq<A>  declared n*n*n  computed n*n*n\n"
        "  overall: Verified\n"), "")
    code, out, err = cli("instrument", str(path))
    assert (code, err) == (0, "")
    assert "int call_diff_A = (n * n * n * n * n * n) - 0;" in out


def test_an_array_past_the_degree_cap_is_counted(tmp_path):
    path = tmp_path / "arraydeg5.mcl"
    path.write_text("class A {} class P { void f(int n) { requires(n >= 0);"
                    " memreq<A>(n); A[] a = new A[n*n*n*n*n]; } }")
    code, out, err = cli("check", str(path))
    assert (code, err) == (1, "")
    assert ("  Violated    P.f  memreq<A[]>  declared (none)  computed n*n*n*n*n\n"
            "              witness: n=1\n") in out


# (text, degree); a product of two 3,000-digit literals has more digits
# than Python converts to text by default
_TERMS = {"0": 0, "1": 0, "3": 0, "9" * 3000: 0, "n": 1, "m": 1, "n * m": 2, "n * n * n": 3}


@st.composite
def _contract_exprs(draw, most=6, depth=3):
    """(source, degree) of an expression over + - * /, max, literals and
    the parameters n and m, of degree at most `most`."""
    if depth == 0 or draw(st.booleans()):
        text = draw(st.sampled_from([t for t in _TERMS if _TERMS[t] <= most]))
        return text, _TERMS[text]
    op = draw(st.sampled_from(["+", "-", "*", "/", "max"]))
    a, da = draw(_contract_exprs(most, depth - 1))
    if op == "/":
        return f"({a} / {draw(st.sampled_from(['2', '2', '0', 'n']))})", da
    b, db = draw(_contract_exprs(most - da if op == "*" else most, depth - 1))
    if op == "max":
        return f"max({a}, {b})", max(da, db)
    return f"({a} {op} {b})", da + db if op == "*" else max(da, db)


# g's requires side, memreq and esc; f's memreq, loop header and call
# argument; each holds what it holds here unless an example replaces it
CONTRACT_PLACES = {"requires": "0", "g-memreq": "1", "g-esc": "1",
                   "f-memreq": "n", "header": "n", "argument": "n"}
CONTRACT_PROGRAM = """class A {
}

class P {
    A g(int n, int m) {
        requires(n >= 0 && m >= 0 && {requires} >= 0);
        memreq<A>({g-memreq});
        esc<A>(return, {g-esc});
        dest_esc(return);
        A a = new A();
        return a;
    }

    void f(int n, int m) {
        requires(n >= 0 && m >= 0);
        memreq<A>({f-memreq});
        memreq<P>(1);
        P p = new P();
        for (i = 1 .. {header}) {
            A b = p.g({argument}, m);
        }
    }
}
"""


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(sorted(CONTRACT_PLACES)),
                       _contract_exprs().map(lambda t: t[0]), min_size=1, max_size=3))
def test_every_command_keeps_the_exit_contract_on_any_contract_expression(
        tmp_path_factory, exprs):
    # expressions of degree up to 6 in a bound, a requires, a loop header
    # or a call's argument: every command ends with an exit code, whatever
    # it reads, sums or refuses.  A run over a header of 3,000 digits ends
    # at the step budget, cut to 10,000 steps, which every run over small
    # literals finishes within
    text = CONTRACT_PROGRAM
    for place, default in CONTRACT_PLACES.items():
        text = text.replace(f"{{{place}}}", exprs.get(place, default))
    path = tmp_path_factory.mktemp("exprs") / "exprs.mcl"
    path.write_text(text)
    with mock.patch.object(oracle, "MAX_STEPS", 10_000):
        for argv in (["check"], ["instrument"], ["ptg"], ["validate", "--grid", "1"],
                     ["run", "--entry", "P.f", "--args", "[1, 1]"]):
            code, _, _ = cli(argv[0], str(path), *argv[1:])
            assert code in (0, 1, 2, 3), argv


def test_validate_reports_a_fractional_bound_rounded_down(tmp_path):
    # (n - 1)/2 at n = 0 is -1/2: no count is within it, and it reads as -1
    path = tmp_path / "half.mcl"
    path.write_text("class A {} class P { void f(int n) { requires(n >= 0);"
                    " memreq<A>((n - 1) / 2); for (i = 1 .. n) { A a = new A(); } } }")
    code, out, err = cli("validate", str(path), "--grid", "2")
    assert code == 1
    assert out.startswith("VIOLATED  P.f memreq<A>: declared (n - 1)/2 = -1, observed 0"
                          " (entry n=0);")
    code, out, err = cli("validate", str(path), "--grid", "2", "--format", "json")
    (violation,) = json.loads(out)["violations"]
    assert (violation["declaredValue"], violation["observed"]) == (-1, 0)


def test_seven_variable_non_integral_bound_is_an_unverified_row(tmp_path):
    params = [f"p{k}" for k in range(1, 8)]
    path = tmp_path / "sevenvar.mcl"
    path.write_text(
        "class A {\n}\n\nclass P {\n"
        f"    void f({', '.join(f'int {p}' for p in params)}) {{\n"
        f"        requires({' && '.join(f'{p} >= 0' for p in params)});\n"
        f"        memreq<A>(({' + '.join(params)} + 2) / 2);\n\n"
        "        A a = new A();\n    }\n}\n")
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, err) == (2, f"inconclusive: {path}: 1 of 1 clauses unverified"
                              " (first: P.f memreq<A>: declared bound is not"
                              " integer-valued)\n")
    [row] = json.loads(out)["clauses"]
    assert row["verdict"] == "Unverified"
    assert row["reason"] == "declared bound is not integer-valued"


def test_check_names_each_inconclusive_file_on_stderr():
    files = [corpus("faulty_humpcall"), corpus("family")]
    code, _, err = cli("check", *files)
    assert code == 2
    assert err.splitlines() == [
        f"inconclusive: {files[0]}: 1 of 2 clauses unverified (first: Mill.hump"
        " memreq<Blob>: analysis incomplete: monotonicity-unproven)"]


# ------------------------------------------------ the exit-code contract


def _deep_ifs(depth):
    body = "T t = new T();"
    for k in range(depth):
        body = f"if (n > {k}) {{ {body} }}"
    return ("class T {\n}\n\nclass P {\n    void f(int n) {\n        requires(n >= 0);\n"
            f"        memreq<T>(1);\n        {body}\n    }}\n}}\n")


# numbers whose products have thousands of digits: N * N has 6,000 and M's
# fifth power 5,000, past the 4,300 digits that Python converts to text by
# default, which `main` lifts while it runs
HUGE_N, HUGE_M = "9" * 3000, "9" * 1000
# the most digits that Python prints by default: two loops to K sum to 2K
K = "9" * 4300

# P.f bodies: ten steps whatever n is; two that fault at n = 1, by a null
# field store and past an array's end; a bound of 6,000 digits, as it is and
# negated; a loop nest whose closed form has 6,000 digits; and two loops or
# two arrays of K each, whose sum has 4,301 digits
BODIES = {
    "loop": "memreq<T>(10);\n        for (i = 1 .. 10) { T t = new T(); }",
    "null": "memreq<T>(1);\n        T t = null;\n        if (n > 0) { t.x = n; }",
    "bounds": "memreq<T[]>(1);\n        T[] a = new T[1];\n        a[n] = null;",
    "huge-square": f"memreq<T>({HUGE_N} * {HUGE_N});\n        T t = new T();",
    "huge-negative": f"memreq<T>(0 - {HUGE_N} * {HUGE_N});\n        T t = new T();",
    "huge-nest": f"memreq<T>(n);\n        for (i = 1 .. {HUGE_N}) {{"
                 f" for (j = 1 .. {HUGE_N}) {{ T t = new T(); }} }}",
    "two-loops": f"memreq<T>(n);\n        for (i = 1 .. {K}) {{ T t = new T(); }}"
                 f"\n        for (j = 1 .. {K}) {{ T u = new T(); }}",
    "two-arrays": f"memreq<T>(n);\n        T t = new T();\n        T[] a = new T[{K}];"
                  f"\n        T[] b = new T[{K}];",
}


def _p_f(body):
    return ("class T {\n    int x;\n}\n\nclass P {\n    void f(int n) {\n"
            f"        requires(n >= 0);\n        {BODIES[body]}\n    }}\n}}\n")


COMMANDS = {
    "check": ["check"],
    "instrument": ["instrument"],
    "run": ["run", "--entry", "P.f", "--args", "[1]"],
    "ptg": ["ptg"],
    "validate": ["validate", "--grid", "1"],
}
IO_ERROR = '{"code": "io-error"'
# a literal of more digits than Python converts from text by default
LONG = "9" * 5000


def _every(file, codes, prefixes, steps=None):
    return [(file, COMMANDS[c], steps, code, prefix)
            for c, code, prefix in zip(COMMANDS, codes, prefixes)]


# (file, argv after the command's file, MAX_STEPS or None, exit code, the
# start of the one stderr line, or "" for none)
HOSTILE = [
    *_every("non-utf8", [3] * 5, [IO_ERROR] * 5),
    ("deep-if", ["run", "--entry", "P.f", "--args", "[" * 100_000 + "]" * 100_000],
     None, 3, "error: --args is not valid JSON: maximum recursion depth"),
    # a 5,000-digit argument is read, and the run ends as any run of P.f does
    ("deep-if", ["run", "--entry", "P.f", "--args", f"[{'9' * 5000}]"],
     None, 2, "inconclusive: "),
    ("listbuild", ["validate", "--grid", str(10 ** 12)],
     None, 2, "inconclusive: "),
    ("listbuild", ["validate", "--grid", str(2 ** 64)],
     None, 2, "inconclusive: "),
    *_every("deep-if", [0, 0, 2, 0, 2], ["", "", "inconclusive: ", "", "inconclusive: "]),
    *_every("loop", [0, 0, 2, 0, 2], ["", "", "inconclusive: ", "", "inconclusive: "],
            steps=5),
    *_every("null", [0, 0, 1, 0, 1], ["", "", "runtime error: NullDereference", "", ""]),
    *_every("bounds", [0, 0, 1, 0, 1], ["", "", "runtime error: ArrayBounds", "", ""]),
    # a number of thousands of digits is read, summed and printed as any other
    *_every("long-body", [0] * 5, [""] * 5),
    *_every("long-requires", [0] * 5, [""] * 5),
    *_every("huge-square", [0] * 5, [""] * 5),
    *_every("huge-negative", [1, 0, 0, 0, 1], [""] * 5),
    *_every("huge-call", [1, 0, 1, 0, 0], ["", "", "runtime error: NullDereference", "", ""]),
    *_every("huge-nest", [1, 0, 2, 0, 2], ["", "", "inconclusive: ", "", "inconclusive: "],
            steps=5),
    *_every("two-loops", [1, 0, 2, 0, 2], ["", "", "inconclusive: ", "", "inconclusive: "],
            steps=5),
    *_every("two-arrays", [1, 0, 2, 0, 2], ["", "", "inconclusive: ", "", "inconclusive: "],
            steps=5),
]


@pytest.fixture
def hostile_files(tmp_path):
    files = {"non-utf8": b"\xff\xfeclass P {\n}\n", "deep-if": _deep_ifs(400),
             **{body: _p_f(body) for body in BODIES},
             "long-body": _p_f("loop").replace("for", f"int k = {LONG};\n        for"),
             "long-requires": _p_f("loop").replace("n >= 0", f"n <= {LONG}"),
             "huge-call": "class A {} class P {"
                          " void g(int k) { requires(k >= 0); memreq<A>(k*k*k*k*k); }"
                          " void f(int n) { requires(n >= 0); memreq<A>(n);"
                          f" this.g({HUGE_M} * n); }} }}"}
    paths = {"listbuild": corpus("listbuild")}
    for name, text in files.items():
        path = tmp_path / f"{name}.mcl"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("file, argv, steps, code, prefix", HOSTILE,
                         ids=[f"{h[0]}-{h[1][0]}-{i}" for i, h in enumerate(HOSTILE)])
def test_every_command_keeps_the_exit_contract_on_hostile_input(
        hostile_files, monkeypatch, file, argv, steps, code, prefix):
    if steps is not None:
        monkeypatch.setattr(oracle, "MAX_STEPS", steps)
    got, out, err = cli(argv[0], hostile_files[file], *argv[1:])
    assert got == code, err
    assert len(err.splitlines()) == (1 if prefix else 0), err
    assert err.startswith(prefix)
    # under validate a fault or a bound exceeded is a finding (exit 1); a run
    # cut short is not
    assert ("RUNTIME ERROR" in out or "VIOLATED" in out) == (argv[0] == "validate"
                                                             and code == 1)
    assert "INCONCLUSIVE" not in out or code == 2


def test_a_cut_short_grid_run_is_inconclusive_as_a_cut_short_run_is(hostile_files):
    path = hostile_files["deep-if"]
    assert cli("check", path)[0] == 0
    for args in ("[1]", f"[{'9' * 5000}]"):
        code, out, err = cli("run", path, "--entry", "P.f", "--args", args)
        assert (code, out, err) == (
            2, "", f"inconclusive: {path}: StackExhausted: P.f nests too deeply to lower\n")
    code, out, err = cli("validate", path, "--grid", "0", "--format", "json")
    data = json.loads(out)
    assert (code, data["runtimeErrors"]) == (2, [])
    assert data["inconclusive"] == [
        {"entry": "P.f", "point": {"n": 0}, "error": "P.f nests too deeply to lower"}]
    assert err == (f"inconclusive: {path}: 1 of 1 grid runs cut short"
                   " (first: P.f at {'n': 0}: P.f nests too deeply to lower)\n")


def test_a_sum_of_two_printable_loops_is_printed(hostile_files, unlimited_digits):
    # each loop's closed form K prints by Python's default; their sum 2K does not
    code, out, err = cli("check", hostile_files["two-loops"])
    assert (code, err) == (1, "")
    assert (f"  Violated    P.f  memreq<T>  declared n  computed {2 * int(K)}\n"
            "              witness: n=0\n") in out


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-string limit")
@pytest.mark.parametrize("start", [None, 5000], ids=["default", "caller-set"])
def test_main_restores_the_callers_int_string_limit(hostile_files, start):
    before = sys.get_int_max_str_digits()
    if start is not None:
        sys.set_int_max_str_digits(start)
    expected = sys.get_int_max_str_digits()
    try:
        for argv, code in ((["check", hostile_files["loop"]], 0),
                           (["run", hostile_files["loop"], "--entry", "P.f",
                             "--args", "[1"], 3),
                           (["check", hostile_files["non-utf8"]], 3),
                           (["run", hostile_files["deep-if"], "--entry", "P.f",
                             "--args", "[1]"], 2)):
            assert cli(*argv)[0] == code
            assert sys.get_int_max_str_digits() == expected, argv
        with pytest.raises(SystemExit):
            main(["--help"], out=io.StringIO(), err=io.StringIO())
        assert sys.get_int_max_str_digits() == expected
    finally:
        sys.set_int_max_str_digits(before)


def test_one_parser_per_process_answers_as_fresh_parsers(capsys):
    # main builds its argument parser once per process; no parse may leave
    # anything behind that changes the next one, and `--help` prints to the
    # process's own stdout before it exits
    lines = (("run", corpus("family"), "--entry", "Family.CreateFamily"),
             ("--help",), ("--help",), ("check", corpus("family")))

    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            code = main(list(argv), out=out, err=err)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        printed = capsys.readouterr()
        return code, out.getvalue(), err.getvalue(), printed.out, printed.err

    fresh = []
    for argv in lines:
        _build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [f[0] for f in fresh] == [3, ("SystemExit", 0), ("SystemExit", 0), 0]
    assert "usage: mclcheck" in fresh[1][3]
    for order in itertools.permutations(range(len(lines))):
        _build_parser.cache_clear()
        for i in order:
            assert outcome(lines[i]) == fresh[i], (order, lines[i])
        assert _build_parser.cache_info().misses == 1


def test_every_command_reads_a_literal_of_100000_digits(tmp_path):
    big = "9" * 100_000
    path = tmp_path / "vast.mcl"
    path.write_text(_p_f("loop").replace("n >= 0", f"n >= 0 && n <= {big}")
                    .replace("for", f"int k = {big};\n        for"))
    for argv in COMMANDS.values():
        code, out, err = cli(argv[0], str(path), *argv[1:])
        assert (code, err) == (0, ""), argv


def test_a_huge_grid_is_refused_before_it_is_built():
    tracemalloc.start()
    try:
        code, out, err = cli("validate", corpus("listbuild"), "--grid", "2000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (f"inconclusive: {corpus('listbuild')}: 2000001 grid points"
                   " exceed the 20000 cap\n")
    assert peak < 1_000_000


LINKED_LOOP = """class A {
    A next;
}

class P {
    void f(int n) {
        requires(n >= 0);
        memreq<A>(CAP);

        A h = null;
        for (i = 1 .. n) {
            SPACE
            A a = new A();
            a.next = h;
            h = a;
        }
    }
}
"""


def test_constant_bound_beyond_the_witness_grid_is_violated(tmp_path):
    path = tmp_path / "beyond.mcl"
    path.write_text(LINKED_LOOP.replace("CAP", "8").replace("SPACE", ""))
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, err) == (1, "")
    [row] = json.loads(out)["clauses"]
    assert row["verdict"] == "Violated"
    assert row["witness"] == {"n": 9}


def test_iteration_space_narrower_than_a_long_header_is_violated(tmp_path):
    # the clause is summed over the header 1 .. n, not over the space, and
    # the space is a claim about the header that fails at the same point
    path = tmp_path / "narrow.mcl"
    path.write_text(LINKED_LOOP.replace("CAP", "9").replace(
        "SPACE", "iteration_space(1 <= i && i <= 9);"))
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, err) == (1, "")
    rows = json.loads(out)["clauses"]
    assert [(r["clause"], r["declared"], r["computed"], r["verdict"], r["witness"])
            for r in rows] == [
        ("memreq<A>", "9", "n", "Violated", {"n": 10}),
        ("iteration_space(1 <= i && i <= 9)", None, "1 .. n", "Violated", {"n": 10})]


@pytest.mark.parametrize("space, code, rows", [
    ("1 <= i", 0, []),
    ("1 <= i && 2 * i <= n", 1, [("iteration_space(1 <= i && 2 * i <= n)", {"n": 1})]),
], ids=["1 <= i", "1 <= i && 2 * i <= n"])
def test_iteration_space_is_a_claim_about_the_header(tmp_path, space, code, rows):
    # the header gives the range whatever the space says; a space that
    # every header index satisfies adds no row, one that some index breaks
    # is a Violated row of its own
    path = tmp_path / "unbounded.mcl"
    path.write_text(LINKED_LOOP.replace("CAP", "n").replace(
        "SPACE", f"iteration_space({space});"))
    got, out, err = cli("check", str(path), "--format", "json")
    assert (got, err) == (code, "")
    doc = json.loads(out)["clauses"]
    assert [(r["clause"], r["verdict"]) for r in doc] == [("memreq<A>", "Verified")] + [
        (clause, "Violated") for clause, _ in rows]
    assert [r["witness"] for r in doc[1:]] == [w for _, w in rows]


def test_requires_violation_lists_entry_values_sorted_whatever_the_hash_seed(tmp_path):
    path = tmp_path / "pre.mcl"
    path.write_text("class P {\n    void f(int n, int m, int k) {\n"
                    "        requires(n >= 5);\n    }\n}\n")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs.append(subprocess.run(
            [sys.executable, "-c",
             "import sys; from mclcheck.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", str(path), "--entry", "P.f", "--args", "[1, 2, 3]"],
            capture_output=True, text=True, env=env, timeout=60))
    assert runs[0].returncode == runs[1].returncode == 3
    assert runs[0].stderr == runs[1].stderr
    assert "{'k': 3, 'm': 2, 'n': 1}" in runs[0].stderr


# ------------------------------------------------------------ JSON encoding


def _canonical(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.mcl")), ids=lambda p: p.stem)
def test_json_output_is_indented_sorted_json(path):
    for command in ("check", "validate", "ptg"):
        _, out, _ = cli(command, str(path), "--format", "json")
        assert out == _canonical(out), command


def _event_dict(ev):
    if ev[0] == "alloc":
        _, oid, cls, weight, site, by = ev
        return {"event": "alloc", "oid": oid, "class": cls,
                "weight": weight, "site": site, "by": by}
    if ev[0] == "reclaim":
        return {"event": "reclaim", "oid": ev[1]}
    return {"event": ev[0], "method": ev[1], "instance": ev[2]}


def _run_document(result, entry, gc):
    """`run --format json`'s document as a dict, the specification of its
    bytes: `json.dumps(..., indent=2, sort_keys=True)` of it."""
    value = result.return_value
    return {
        "entry": entry,
        "gc": gc,
        "returnValue": {"$ref": value.oid} if isinstance(value, oracle.Ref) else value,
        "trace": [_event_dict(ev) for ev in result.trace],
        "observations": [o.to_json() for o in result.observations],
        "assertionFailures": [{"method": f.method, "instance": f.instance, "cond": f.cond}
                              for f in result.assertion_failures],
    }


def _load_same_outputs():
    path = CORPUS.parent / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sources beside the corpus, by name: the oracle-deep shapes, and arrays
# of length zero allocated by the harness and by the method
_RUN_SOURCES = {
    "deep": DEEP_SOURCE,
    "arrays": "class T {\n}\n\nclass P {\n    T[] f(int n, T[] given) {\n"
              "        requires(n >= 0);\n        T[] a = new T[n];\n        return a;\n"
              "    }\n}\n",
}


def _run_cases():
    """(name, entry, args): every corpus method with its in-parameters bound
    as `tools/same_outputs.py` binds them, the oracle-deep shapes at small
    n, and the arrays source at lengths zero and two."""
    run_args = _load_same_outputs()._run_args
    cases = [("listbuild", "Node.build", "[40]"), ("family", "Person.Person", '["Ann", "Lee"]')]
    for path in sorted(CORPUS.glob("*.mcl")):
        cases += [(path.stem, m.qname, run_args(m)) for m in load(path.read_text()).methods()]
    cases += [("deep", "Deep.chain", "[6]"), ("deep", "Deep.churn", "[4]"),
              ("deep", "Deep.nest", "[5]"), ("arrays", "P.f", "[0, []]"),
              ("arrays", "P.f", "[2, [null, null]]")]
    return cases


def _run_source(name, tmp_path):
    if name not in _RUN_SOURCES:
        return corpus(name)
    path = tmp_path / f"{name}.mcl"
    path.write_text(_RUN_SOURCES[name])
    return str(path)


@pytest.mark.parametrize("name, entry, args", _run_cases())
def test_run_json_is_indented_sorted_json(name, entry, args, tmp_path):
    path = _run_source(name, tmp_path)
    for gc in ("ideal", "method-exit"):
        code, out, err = cli("run", path, "--entry", entry, "--args", args,
                             "--format", "json", "--gc", gc)
        try:
            result = oracle.run(load(pathlib.Path(path).read_text(), path), entry,
                                json.loads(args), gc=gc)
        except oracle.OracleError as exc:  # a method that reads `this`, say
            assert (code, out) == (1, ""), gc
            assert err == f"runtime error: {type(exc).__name__}: {exc}\n"
            continue
        expected = json.dumps(_run_document(result, entry, gc), indent=2, sort_keys=True)
        assert code == (1 if result.assertion_failures else 0), gc
        assert out == expected + "\n", gc


def test_the_run_json_cases_cover_every_event_shape(tmp_path):
    seen = set()
    for name, entry, args in _run_cases():
        path = _run_source(name, tmp_path)
        try:
            result = oracle.run(load(pathlib.Path(path).read_text(), path), entry,
                                json.loads(args))
        except oracle.OracleError:
            continue
        for ev in result.trace:
            seen.add(ev[0])
            if ev[0] == "alloc" and ev[2].endswith("[]"):
                seen.add("empty array" if ev[3] == 0 else "array")
            if ev[0] == "alloc" and ev[5] == "<harness>@0":
                seen.add("by the harness")
        if isinstance(result.return_value, oracle.Ref):
            seen.add("$ref")
    assert seen == {"alloc", "reclaim", "call", "ret", "array", "empty array",
                    "by the harness", "$ref"}


# strings that need escaping, or that look like the JSON around them
_STRINGS = st.text(st.sampled_from('"\\{}[],: \n\t\x00\x1f\x7fa\u00e9\u20ac\U0001f600'),
                   max_size=6) | st.text(max_size=6)
_LEAVES = (st.none() | st.booleans() | st.integers(-2 ** 100, 2 ** 100) | st.floats()
            | st.sampled_from([-0.0, math.inf, -math.inf, math.nan]) | _STRINGS)


def _containers(members):
    return (st.lists(members, max_size=4) | st.lists(members, max_size=4).map(tuple)
            | st.dictionaries(_STRINGS, members, max_size=4))


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=24)


def _holding(leaves):
    """Values with one of `leaves` somewhere among generated members."""
    def around(inner):
        return (st.tuples(st.lists(_VALUES, max_size=2), inner, st.lists(_VALUES, max_size=2))
                .map(lambda t: [*t[0], t[1], *t[2]])
                | st.tuples(st.dictionaries(_STRINGS, _VALUES, max_size=2), _STRINGS, inner)
                .map(lambda t: {**t[0], t[1]: t[2]}))
    return st.recursive(leaves, around, max_leaves=4)


def _dumped(value):
    out = io.StringIO()
    _dump(value, out)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_dump_writes_the_bytes_of_indented_sorted_json_dumps(value):
    assert _dumped(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(_holding(st.sampled_from([object(), {1, 2}])))
def test_dump_rejects_an_unencodable_value_as_json_dumps_does(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dumped(value)


# oids and weights reach thousands of digits once `cli.main` lifts the
# interpreter's limit on converting ints to text
_BIG = st.integers(0, 2 ** 64) | st.integers(0, 10 ** 5000 - 1)
_EVENTS = (st.tuples(st.just("alloc"), _BIG, _STRINGS, _BIG, _STRINGS, _STRINGS)
           | st.tuples(st.just("reclaim"), _BIG)
           | st.tuples(st.sampled_from(["call", "ret"]), _STRINGS, _STRINGS))


# the fixture only lifts the int-string limit, so one run serves every example
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_EVENTS, max_size=6))
@example([])
def test_the_trace_writer_writes_what_json_dumps_writes(unlimited_digits, trace):
    expected = json.dumps({"trace": [_event_dict(ev) for ev in trace]}, indent=2, sort_keys=True)
    assert _dumped({"trace": _trace_json(trace)}) == expected + "\n"


_NON_STR_KEYS = st.integers() | st.none() | st.booleans() | st.floats() | st.tuples(st.integers())


@settings(max_examples=100, deadline=None)
@given(_holding(st.tuples(st.dictionaries(_STRINGS, _VALUES, max_size=3), _NON_STR_KEYS, _VALUES)
                .map(lambda t: {**t[0], t[1]: t[2]})))
def test_dump_rejects_a_non_str_key(value):
    with pytest.raises(TypeError):
        _dumped(value)


# ------------------------------------------------------------ output failures


class FailingWriter(io.StringIO):
    """A stream whose write, or only its flush, raises."""

    def __init__(self, exc, on="write"):
        super().__init__()
        self.exc, self.on = exc, on

    def write(self, text):
        if self.on == "write":
            raise self.exc
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise self.exc


OUTPUT_COMMANDS = [
    *(pytest.param(["check", corpus("family"), "--format", f], id=f"check-{f}")
      for f in ("human", "json")),
    pytest.param(["instrument", corpus("family")], id="instrument"),
    *(pytest.param(["run", corpus("listbuild"), "--entry", "Node.build", "--args", "[3]",
                    "--format", f], id=f"run-{f}") for f in ("human", "json")),
    *(pytest.param(["ptg", corpus("family"), "--format", f], id=f"ptg-{f}")
      for f in ("human", "json")),
    *(pytest.param(["validate", corpus("faulty_low_bound"), "--grid", "2", "--format", f],
                   id=f"validate-{f}") for f in ("human", "json")),
]
WRITE_ERRORS = [pytest.param(BrokenPipeError(32, "Broken pipe"), id="EPIPE"),
                pytest.param(OSError(28, "No space left on device"), id="ENOSPC")]


@pytest.mark.parametrize("argv", OUTPUT_COMMANDS)
@pytest.mark.parametrize("exc", WRITE_ERRORS)
@pytest.mark.parametrize("on", ["write", "flush"])
def test_output_that_cannot_be_written_exits_three(argv, exc, on):
    err = io.StringIO()
    assert main(argv, out=FailingWriter(exc, on), err=err) == 3
    [line] = err.getvalue().splitlines()
    assert json.loads(line) == {"severity": "error", "code": "io-error",
                                "message": f"cannot write output: {exc}"}


@pytest.mark.parametrize("argv", OUTPUT_COMMANDS)
@pytest.mark.parametrize("exc", WRITE_ERRORS)
def test_no_stream_that_can_be_written_still_exits_three(argv, exc):
    assert main(argv, out=FailingWriter(exc), err=FailingWriter(exc)) == 3


def test_a_closed_stdout_exits_three_without_a_traceback():
    # the process starts with descriptor 1 closed, so sys.stdout is None
    src = str(CORPUS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "mclcheck", "check", corpus("bigfamily")],
                          stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=120, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert json.loads(line)["code"] == "io-error"
