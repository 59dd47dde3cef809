"""End-to-end command coverage through main(); only the hash-seed tests and
the `python -m mclcheck` test start subprocesses, since a process fixes its
hash seed at start-up."""

import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from helpers import relay_chain
from mclcheck.cli import main

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


def test_recursion_without_contract_is_inconclusive(tmp_path):
    src = tmp_path / "rec.mcl"
    src.write_text("""
    class R {
        void spin(int n) {
            if (n > 0) { this.spin(n - 1); }
        }
    }
    """)
    code, _, err = cli("check", str(src))
    assert code == 2
    assert "inconclusive" in err


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
    code, out, _ = cli("run", corpus("family"),
                       "--entry", "Family.CreateFamily",
                       "--args", '["Doe", ["a", "b", "c"]]')
    assert code == 0
    assert "measured Family.CreateFamily@1: " in out
    assert "Person=3" in out
    assert "return value:" in out


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


# ------------------------------------------------------------ run arguments


OUT_FIRST = """class A {
}

class P {
    void f(out A x, int n) {
        x = null;
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


@pytest.mark.parametrize("args, names", [
    ("[null, 3]", "one per in-parameter (n); got 2"),
    ('["x"]', "argument n must be int"),
])
def test_run_args_that_do_not_fit_are_usage_errors(tmp_path, args, names):
    path = tmp_path / "outfirst.mcl"
    path.write_text(OUT_FIRST)
    code, out, err = cli("run", str(path), "--entry", "P.f", "--args", args)
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
    assert (code, out) == (2, "")
    assert err.startswith("inconclusive: ") and "degree" in err


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
    files = [corpus("faulty_humpcall"), corpus("family"), corpus("faulty_narrow_space")]
    code, _, err = cli("check", *files)
    assert code == 2
    assert err.splitlines() == [
        f"inconclusive: {files[0]}: 1 of 2 clauses unverified (first: Mill.hump"
        " memreq<Blob>: analysis incomplete: monotonicity-unproven)",
        f"inconclusive: {files[2]}: 2 of 2 clauses unverified (first: Spool.wind"
        " memreq<Token>: analysis incomplete: iteration-space-mismatch)"]


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


def test_iteration_space_narrower_than_a_long_header_is_unverified(tmp_path):
    path = tmp_path / "narrow.mcl"
    path.write_text(LINKED_LOOP.replace("CAP", "9").replace(
        "SPACE", "iteration_space(1 <= i && i <= 9);"))
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, err) == (2, f"inconclusive: {path}: 1 of 1 clauses unverified"
                              " (first: P.f memreq<A>: analysis incomplete:"
                              " iteration-space-mismatch)\n")
    [row] = json.loads(out)["clauses"]
    assert row["verdict"] == "Unverified"
    assert "iteration-space-mismatch" in row["reason"]


@pytest.mark.parametrize("space", ["1 <= i", "1 <= i && 2 * i <= n"])
def test_iteration_space_without_a_usable_upper_bound_is_inconclusive(tmp_path, space):
    path = tmp_path / "unbounded.mcl"
    path.write_text(LINKED_LOOP.replace("CAP", "n").replace(
        "SPACE", f"iteration_space({space});"))
    code, out, err = cli("check", str(path), "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"inconclusive: {path}: no upper bound for i\n"


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
