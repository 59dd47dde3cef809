"""Rules the source tree itself must keep."""

import ast
import importlib
import inspect
import pathlib
import re

from mclcheck.cli import _EVENTS
from mclcheck.frontend import LocalDecl, load
from mclcheck.frontend.syntax import SHAPES, MethodContract, iter_stmts, obligations
from mclcheck.instrument import KIND_MAXCALLS, KIND_SUMCALLS, instrument
from mclcheck.summary import call_entries

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"
CORPUS = SRC.parent / "corpus"


def test_no_bare_assert_under_src():
    # `python -O` strips assert statements, so an invariant check written as
    # one silently disappears; raise a real exception instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {', '.join(found)}"


def test_grid_enumeration_stays_out_of_the_decision_path():
    # the static checker decides clauses exactly; a product over value
    # ranges belongs only to the oracle's argument grids and to the
    # witness search and integrality box in symexpr
    allowed = {"oracle.py", "symexpr.py"}
    found = []
    for path in sorted((SRC / "mclcheck").rglob("*.py")):
        if path.name in allowed and path.parent.name == "mclcheck":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            attr = (isinstance(node, ast.Attribute) and node.attr == "product"
                    and isinstance(node.value, ast.Name) and node.value.id == "itertools")
            imported = (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                        and any(a.name == "product" for a in node.names))
            if attr or imported:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"itertools.product outside oracle.py and symexpr.py: {', '.join(found)}"


def test_reference_slots_are_written_only_by_the_reference_helpers():
    # the incremental collector trusts each object's incoming-reference
    # counts; a slot written anywhere else would leave them stale without
    # changing any output until an object is reclaimed while still reachable
    helpers = {"_set_local": "locals", "_set_field": "fields"}
    path = SRC / "mclcheck" / "oracle.py"
    tree = ast.parse(path.read_text(), str(path))
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                owner[node] = fn.name  # ast.walk is breadth-first: innermost wins
    writes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                else [node.target]
            for t in targets:
                if (isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
                        and t.value.attr in ("locals", "fields")):
                    writes.append((owner.get(node), t.value.attr, node.lineno))
    stray = [f"oracle.py:{line}" for fn, attr, line in sorted(writes, key=lambda w: w[2])
             if helpers.get(fn) != attr]
    assert not stray, f"slot writes outside the reference helpers: {', '.join(stray)}"
    assert sorted({(fn, attr) for fn, attr, _ in writes}) == sorted(helpers.items())


def test_the_benchmark_entry_points_exist():
    # the traced benchmark replaces each (module, attribute) of
    # bench/spans.py's ENTRY_POINTS by name; a rename would crash it
    tree = ast.parse((BENCH / "spans.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "ENTRY_POINTS"
                         for t in node.targets))
    pairs = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert len(pairs) > 10
    missing = [f"{mod}.{attr}" for mod, attr in pairs
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"benchmark entry points gone: {', '.join(missing)}"


def test_the_oracle_imports_no_checker_module():
    # the oracle is the ground truth the static checker is judged against;
    # reading contracts through the checker's code would let one mistake
    # agree with itself
    path = SRC / "mclcheck" / "oracle.py"
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from .x import y` names module x; `from . import x` names x
            base = "mclcheck." * bool(node.level) + (node.module or "")
            names = [base] if node.module else [base + a.name for a in node.names]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("mclcheck.")}
    stray = sorted(found - {"frontend", "symexpr"})
    assert not stray, f"oracle.py imports {', '.join(stray)}"


def test_clause_labels_are_spelled_only_in_the_frontend():
    # `memreq<K>` and `esc<K>(tag)` are spelled once, by syntax.Clause.label;
    # a second spelling could drift from the first
    found = []
    for path in sorted((SRC / "mclcheck").rglob("*.py")):
        if path.parent.name == "frontend":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and any(
                    isinstance(part, ast.Constant) and isinstance(part.value, str)
                    and ("memreq<" in part.value or "esc<" in part.value)
                    for part in node.values):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"clause labels built outside frontend/: {', '.join(found)}"


def test_keyword_statements_are_spelled_only_by_the_shape_table():
    # syntax.SHAPES gives each keyword statement's source form, which the
    # parser reads and the printer writes; a keyword spelled with its first
    # punctuation anywhere else is a second spelling that could drift
    spellings = {word + shape.split()[0] for word, (_, shape) in SHAPES.items()}
    found = []
    for path in sorted((SRC / "mclcheck").rglob("*.py")):
        if path.parent.name == "frontend" and path.name != "printer.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):  # f-string parts are constants too
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and any(
                    s in node.value for s in spellings):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"keyword statements spelled outside the shape table: {', '.join(found)}"


def _callers(name: str) -> list[str]:
    """Each call of a function or method `name` under src/mclcheck, as
    file:enclosing function."""
    found = []
    for path in sorted((SRC / "mclcheck").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    owner[node] = fn.name  # ast.walk is breadth-first: innermost wins
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{path.relative_to(SRC / 'mclcheck')}:{owner.get(node)}")
    return found


def test_a_polynomial_has_one_integer_form():
    # the common denominator of a contract polynomial is taken once, by
    # symexpr.integral, which the checker's rows, both printers and the
    # oracle's bounds read; a second one could order or scale terms apart
    assert _callers("lcm") == ["symexpr.py:integral"]


def test_a_call_is_charged_by_one_rule():
    # summary.call_entries binds a callee's contract for both the checker
    # and the instrumenter, so the two cannot charge a call differently
    assert _callers("contract_binding") == ["summary.py:call_entries"]


def test_what_a_method_claims_is_read_by_one_function():
    # syntax.obligations lists a method's declared clauses and its absent
    # ones at zero, where no object clause covers their tag, for the
    # checker's claims (`summary.summarize`, collapsed in object mode), the
    # copy's ensures and counters, the oracle's bounds and the methods
    # validate drives; a fourth reader of a method's own clauses could hold
    # an absent one to something other than zero.  The other readers of
    # clauses read a callee's, through the bounds a caller's keys read of it
    assert sorted(_callers("obligations")) == [
        "instrument.py:__init__", "oracle.py:__init__", "oracle.py:validate",
        "summary.py:summarize"]
    assert sorted(c for c in _callers("clauses") if not c.startswith("frontend/syntax.py")) == [
        "instrument.py:_snapshot_args", "summary.py:contract_binding"]
    assert sorted(_callers("bounds_for")) == ["instrument.py:_charged", "summary.py:call_entries"]


def test_a_clause_is_counted_as_its_key_says():
    # the key alone says how a clause is counted: `object` every class, a
    # class itself.  No reader takes a flag that re-decides it, the one
    # collapse onto `object` is `syntax.collapsed`, which object mode and a
    # caller's object key read, and `check` summarizes each method once
    assert list(inspect.signature(MethodContract.clauses).parameters) == ["self"]
    assert list(inspect.signature(MethodContract.bounds_for).parameters) == ["self", "keys"]
    assert list(inspect.signature(obligations).parameters) == ["method"]
    assert list(inspect.signature(call_entries).parameters) == ["stmt", "admissible", "keys"]
    assert sorted(_callers("collapsed")) == ["frontend/syntax.py:bounds_for",
                                             "summary.py:summarize"]
    assert _callers("summarize") == ["summary.py:check_program"]
    for module, cls in (("summary.py", "_Summarizer"), ("instrument.py", "_Instrumenter")):
        tree = ast.parse((SRC / "mclcheck" / module).read_text())
        (body,) = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == cls]
        names = {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "arg", None)
                 for n in ast.walk(body)}
        assert not names & {"mode", "MODE_OBJECT", "MODE_TYPE", "collapsed", "whole"}, cls


def test_a_linear_fact_is_decided_by_one_procedure():
    # symexpr._solve is the one integer decision procedure and _refute its
    # one caller, which confirms a point and picks the witness: a clause
    # goes through entails_leq and a single fact (a sum's guard, an
    # iteration space at its header's ends) through constraint_verdict; a
    # second caller could decide or confirm another way
    assert _callers("_solve") == ["symexpr.py:_refute"]
    assert sorted(_callers("_refute")) == ["symexpr.py:constraint_verdict",
                                           "symexpr.py:entails_leq"]


def test_json_is_indented_only_by_the_cli_encoder():
    # cli._dump writes `--format json` with the bytes of an indented, sorted
    # json.dumps; an indented json.dump, json.dumps or JSONEncoder elsewhere
    # would be a second encoder whose output could drift from the first
    found = []
    for path in sorted((SRC / "mclcheck").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                    in ("dump", "dumps", "JSONEncoder")
                    and any(k.arg == "indent" for k in node.keywords)):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"indented JSON encoded outside cli._dump: {', '.join(found)}"


def test_run_writes_every_trace_event_kind_the_interpreter_appends():
    # cli._EVENTS writes each kind of event from the interpreter's tuple;
    # a kind it does not name would fail at its first `run`, or be written
    # in another kind's shape if it were folded into one
    path = SRC / "mclcheck" / "oracle.py"
    tree = ast.parse(path.read_text(), str(path))
    kinds = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "trace"):
            event = node.args[0]
            assert isinstance(event, ast.Tuple) and isinstance(event.elts[0], ast.Constant), \
                f"oracle.py:{node.lineno}: a trace event whose kind is not a literal"
            kinds.add(event.elts[0].value)
    assert kinds >= {"call", "ret"}  # the scan still finds the appends
    assert {kind for kind, (as_json, as_line) in _EVENTS.items()
            if callable(as_json) and callable(as_line)} == kinds


def test_a_contract_expression_has_one_reader():
    # syntax._read_expr reads every contract expression, a bound's max included;
    # the resolver only says which names each may read, so SymExpr
    # arithmetic of its own would be a second reader that could drift
    path = SRC / "mclcheck" / "frontend" / "resolver.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("symexpr")
                for a in node.names}
    assert not imported & {"add", "sym_max", "sym_sum", "substitute", "SymExpr"}
    assert sorted(_callers("_read_expr")) == ["frontend/syntax.py:expr_bound",
                                         "frontend/syntax.py:expr_poly"]


def test_the_degree_cap_is_checked_where_a_closed_form_is_built():
    # a sum never raises the degree, and what a substitution builds is
    # capped where it is summed or maximized: `_closed` caps what `sum_over`
    # and `max_over` build.  No number's size is checked: `cli.main` alone
    # lifts the interpreter's int-string limit while a command runs
    assert sorted(set(_callers("_closed"))) == ["symexpr.py:max_over", "symexpr.py:sum_over"]
    assert [path.name for path in (SRC / "mclcheck").rglob("*.py")
            if "int_max_str_digits" in path.read_text()] == ["cli.py"]


def test_check_never_stops_a_file():
    # what `check` cannot decide is a flagged row: the analysis raises
    # nothing of its own, and `_cmd_check` catches nothing
    for name in ("summary.py", "symexpr.py"):
        tree = ast.parse((SRC / "mclcheck" / name).read_text())
        assert not [c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                    and any(getattr(b, "id", None) == "Exception" for b in c.bases)], name
    tree = ast.parse((SRC / "mclcheck" / "cli.py").read_text())
    (fn,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             and f.name == "_cmd_check"]
    assert not [n for n in ast.walk(fn) if isinstance(n, ast.Try)]


def test_one_scope_rule_at_every_loop_depth():
    # a call updates its method's one maxCalls/sumCalls pair per key at any
    # depth, as the summary hands a loop's headroom to the scope around it;
    # a walk that skips loop bodies, or a counter pair of a loop's own
    # (maxCall_A, maxCall2_A), would state a second, looser rule
    assert list(inspect.signature(iter_stmts).parameters) == ["body"]
    for path in sorted(CORPUS.glob("*.mcl")):
        inst = instrument(load(path.read_text(), path.name))
        for m in inst.program.methods():
            names = [s.name for s in iter_stmts(m.body) if isinstance(s, LocalDecl)]
            assert not [n for n in names if re.match(r"(max|sum)Call\d*_", n)], m.qname
            pairs = [n for n in names if re.match(r"(max|sum)Calls_", n)]
            assert len(pairs) == len(set(pairs)), m.qname
            kinds = [(i.kind, i.cls) for (q, _), i in inst.counter_index.items()
                     if q == m.qname and i.kind in (KIND_MAXCALLS, KIND_SUMCALLS)]
            assert len(kinds) == len(set(kinds)) == len(pairs), m.qname
