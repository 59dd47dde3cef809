"""Check that two mclcheck source trees give the same outputs.

    python tools/same_outputs.py OLD_SRC NEW_SRC [--seed 101]

OLD_SRC and NEW_SRC are directories that hold an `mclcheck` package, such
as the `src` of two checkouts.  Each tree runs in its own subprocess, so
the two imports never mix, and each runs the same command lines through
`mclcheck.cli.main`:

- every command and probe that `bench/workloads.build` makes for the
  three benchmark workloads at the seed, `ptg --format json` on each file
  that static-scale checks: the families and the call chains with two
  link fields, and the DOT files `ptg --dot` writes for each chain;
- on each file of this checkout's `corpus/`: `instrument --emit`; `check`
  in both modes, human and JSON; `check --format json` in both modes on
  the instrumented copy; `validate --format json` under both `--gc` modes,
  at the default grid and at `--grid 3`, on the source and on the copy;
  human `validate`; `ptg` as JSON and as DOT; and `run`, as JSON and as
  human lines, under both `--gc` modes on each method, its in-parameters
  bound as ints at 3, bools true, strings "x", arrays of 3 nulls and
  objects null, so that the peaks, escapes and traces of runs that violate
  nothing are compared too (a method that reads `this` gives a
  runtime-error line);
- every command on inputs that end a run early, written under the
  temporary directory: a file that is not UTF-8, a 400-deep `if` nest, an
  array longer than the step budget, a null field store, an index past
  an array's end and an integer literal of 5,000 digits; on six whose
  numbers reach thousands of digits once multiplied or summed: a bound
  that squares a 3,000-digit literal, the same negated, a call that raises
  a callee's quintic bound at a 1,000-digit multiple, a loop nest over
  3,000-digit headers, and two loops or two arrays of 4,300 nines each;
  `run --args` of a 100,000-deep nest and of a 5,000-digit number; and
  `validate --grid 2000000`;
- `check`, human and JSON, `instrument` and `ptg --format json` on
  inputs that reach the decision procedure's less travelled branches,
  written under the temporary directory: a clause whose declared bound is
  a max of an affine and a quadratic alternative, a loop whose header is not affine, an
  `iteration_space` with `==`, and four bounds past the degree cap that no
  loop sums: a max of degree 5 plus one, an `esc` of degree 5, a call that
  binds a cubic bound to degree 6, and an array of degree-5 length; a loop
  of calls whose maximum is past the cap beside a loop that is not; and
  recursion through members without clauses: a `spin` that allocates
  nothing, one that allocates, and a mutual recursion, whose escape
  summaries change across fixpoint rounds; a declared bound that sums
  five two-way maxes over four parameters, none of whose 32 alternatives
  another dominates; and a loop over `m .. n` whose closed form has half
  coefficients, once clamped at zero, once with its guard proved from
  `requires`, and once flagged `sum-guard-unproven`;
- on eight methods that charge what they do not declare (a class charged
  only through a callee's contract, a `dest_esc` tag, an `add_esc` pull,
  an allocation in a method without clauses, and a caller that charges
  an undeclared `memreq<object>` with its own class beside a callee's
  object clause) or that an object clause covers (an object `return`
  that pulls a callee's per-class escape, a per-class caller of a callee
  that declares only the object, and a caller that covers memreq beside a
  zero class clause for the class its callee hides), on three names that
  collide in the key, tag or counter space (a class named `object`, a
  user tag named `Return`, and an array `A[]` beside a class `A_arr`),
  and on two calls in a loop nest whose callee's temporaries die with
  each call (a call two loops deep under `memreq<A>(m)`, and `corpus/`'s
  `bigfamily` with `memreq<Logger>(1)`): `check` in both modes, human and
  JSON, `instrument --emit`, and `validate --format json` on the source
  and on the copy;
- `check`, human and JSON, and `ptg`, as DOT and as JSON, on a chain of
  methods whose summaries hold load nodes, each reading one field further
  down its argument, past the depth at which loads fold back, beside a
  callee whose summary holds none and a caller that passes it a null, so
  that both ways a summary is inlined are compared;
- `run --format json` at n = 200, under both `--gc` modes, on two heap
  shapes on which the oracle's work has grown with the square of n,
  written under the temporary directory: a receiver that a loop of pushes
  fills with a list, and a list built and then walked with `t = t.next`;
  each program's `Main.make` builds its own receiver, since `run` gives
  the entry none;
- `run`, as JSON and as human lines, under both `--gc` modes on two inputs
  whose sweeps reclaim several objects at once, written under the
  temporary directory: a cascade, in which dropping a node drops the last
  reference to one allocated before it, and a churn loop of 5 iterations
  that drops two linked nodes in each, so that which objects each sweep
  reclaims, and in what order, are compared too;
- `run`, as JSON and as human lines, and `validate --format json`, under
  both `--gc` modes, on one input whose calls each make one object y,
  written under the temporary directory: y returned, stored into an old
  array that `this` holds, a returned zero-length array, y reached from
  both `this` and `return`, y that no root reaches, and y hung behind an
  old three-node list, so that the exit of an activation that made one
  object is compared too.

For each distinct command line it compares the exit code, stdout, stderr,
the file it emitted (the DOT files of `ptg --dot`, concatenated) and any
exception `cli.main` raised, with the temporary directory written as
`<work>`.  It prints each line that differs and exits 1 on any
difference, 0 when all are the same.  It reads `bench/` and `corpus/`
and writes only under a temporary directory.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "static-scale", "oracle-deep")


_RUN_ARGS = {"int": 3, "bool": True, "string": "x"}  # any other object: null


def _run_args(method) -> str:
    """`run --args` for a method's in-parameters."""
    return json.dumps([[None] * 3 if p.decl_type.is_array else _RUN_ARGS.get(p.decl_type.name)
                       for p in method.params if not p.is_out])


def _corpus_matrix(work: Path) -> list[tuple[list[str], Path | None]]:
    """(argv, emitted path) per command; each copy is emitted before it
    is read."""
    from mclcheck.frontend import load

    lines: list[tuple[list[str], Path | None]] = []
    for path in sorted((ROOT / "corpus").glob("*.mcl")):
        src, inst = str(path), work / "matrix" / f"{path.stem}.inst.mcl"
        dots = work / "matrix" / f"{path.stem}.dot"
        lines.append((["instrument", src, "--emit", str(inst)], inst))
        for mode in ("type", "object"):
            for fmt in ("human", "json"):
                lines.append((["check", src, "--mode", mode, "--format", fmt], None))
            lines.append((["check", str(inst), "--mode", mode, "--format", "json"], None))
        for target in (src, str(inst)):
            for gc in ("ideal", "method-exit"):
                for grid in ([], ["--grid", "3"]):
                    lines.append((["validate", target, "--format", "json",
                                   "--gc", gc, *grid], None))
        lines.append((["validate", src], None))
        lines.append((["ptg", src, "--format", "json"], None))
        lines.append((["ptg", src, "--dot", str(dots)], dots))
        for method in load(path.read_text(), src).methods():
            for gc in ("ideal", "method-exit"):
                run = ["run", src, "--entry", method.qname, "--args", _run_args(method)]
                lines.append(([*run, "--format", "json", "--gc", gc], None))
                lines.append(([*run, "--gc", gc], None))
    return lines


def _p_f(body: str) -> str:
    return ("class T {\n    int x;\n}\n\nclass P {\n    void f(int n) {\n"
            f"        requires(n >= 0);\n        {body}\n    }}\n}}\n")


def _hostile_matrix(work: Path) -> list[tuple[list[str], Path | None]]:
    """Command lines that probe the exit-code contract, on files written
    under work/hostile."""
    deep = "T t = new T();"
    for k in range(400):
        deep = f"if (n > {k}) {{ {deep} }}"
    big, mid, top = "9" * 3000, "9" * 1000, "9" * 4300
    files = {
        "non-utf8": b"\xff\xfeclass P {\n}\n",
        "deep-if": _p_f(f"memreq<T>(1);\n        {deep}"),
        "budget": _p_f("memreq<T[]>(2000000 * n);\n        T[] a = new T[2000000 * n];"),
        "null": _p_f("memreq<T>(1);\n        T t = null;\n        if (n > 0) { t.x = n; }"),
        "bounds": _p_f("memreq<T[]>(1);\n        T[] a = new T[1];\n        a[n] = null;"),
        "long-literal": _p_f(f"memreq<T>(1);\n        int k = {'9' * 5000};"),
        "huge-square": _p_f(f"memreq<T>({big} * {big});\n        T t = new T();"),
        "huge-negative": _p_f(f"memreq<T>(0 - {big} * {big});\n        T t = new T();"),
        "huge-call": "class T {\n}\n\nclass P {\n    void g(int k) {\n"
                     "        requires(k >= 0);\n        memreq<T>(k*k*k*k*k);\n    }\n\n"
                     "    void f(int n) {\n        requires(n >= 0);\n        memreq<T>(n);\n"
                     f"        this.g({mid} * n);\n    }}\n}}\n",
        "huge-nest": _p_f(f"memreq<T>(n);\n        for (i = 1 .. {big}) {{\n"
                          f"            for (j = 1 .. {big}) {{ T t = new T(); }}\n        }}"),
        "two-loops": _p_f(f"memreq<T>(n);\n        for (i = 1 .. {top}) {{ T t = new T(); }}\n"
                          f"        for (j = 1 .. {top}) {{ T u = new T(); }}"),
        "two-arrays": _p_f(f"memreq<T>(n);\n        T t = new T();\n"
                           f"        T[] a = new T[{top}];\n        T[] b = new T[{top}];"),
    }
    (work / "hostile").mkdir()
    lines: list[tuple[list[str], Path | None]] = []
    for name, text in files.items():
        path = work / "hostile" / f"{name}.mcl"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        for command, *rest in (["check"], ["instrument"], ["ptg"],
                               ["run", "--entry", "P.f", "--args", "[1]"],
                               ["validate", "--grid", "1"],
                               ["validate", "--grid", "1", "--format", "json"]):
            lines.append(([command, str(path), *rest], None))
    for args in ("[" * 100_000 + "]" * 100_000, f"[{'9' * 5000}]"):
        lines.append((["run", str(work / "hostile" / "deep-if.mcl"), "--entry", "P.f",
                       "--args", args], None))
    # 2,000,001 points: about 70 MB where the grid is built before it is counted
    lines.append((["validate", str(ROOT / "corpus" / "listbuild.mcl"),
                   "--grid", "2000000"], None))
    return lines


def _loop_f(requires: str, memreq: str, header: str, body: str) -> str:
    return ("class A {\n}\n\nclass P {\n    void f(int n, int m) {\n"
            f"        requires({requires});\n        memreq<A>({memreq});\n"
            f"        for (i = {header}) {{\n            {body}A a = new A();\n"
            "        }\n    }\n}\n")


def _spin(alloc: str) -> str:
    return ("class A {\n}\n\nclass R {\n    void spin(int n) {\n"
            f"        {alloc}if (n > 0) {{ this.spin(n - 1); }}\n    }}\n}}\n")


def _sums_f(method: str, requires: str, inner: str) -> str:
    """A method whose loop over i = m .. n allocates once per j of
    `inner`."""
    return (f"    void {method}(int n, int m) {{\n        requires({requires});\n"
            "        memreq<A>(n*n + n + m*m + m);\n        for (i = m .. n) {\n"
            f"            for (j = {inner}) {{ A a = new A(); }}\n        }}\n    }}\n")


def _decision_matrix(work: Path) -> list[tuple[list[str], Path | None]]:
    """`check` in both formats, `instrument` and `ptg` on clauses and facts
    the decision procedure meets rarely, and the eight absent-clause and
    object cases, the three name collisions and the two call nests,
    written under work/decision."""
    files = {
        "quadratic-alternative": _loop_f("n >= 3", "max(2 * n, n * n - 5)", "1 .. n + 3", ""),
        "non-affine-header": _loop_f("n >= 0 && m >= 0", "n * m", "1 .. n * m", ""),
        "space-equality": _loop_f("n >= 0 && m >= 0", "m", "1 .. m",
                                 "iteration_space(i == n);\n            "),
        "max-plus-degree-5": _p_f("memreq<T>(max(n*n*n*n*n, 1) + 1);\n        T t = new T();"),
        "esc-degree-5": "class T {\n}\n\nclass P {\n    T f(int n) {\n        requires(n >= 0);\n"
                        "        esc<T>(return, n*n*n*n*n);\n        T t = new T();\n"
                        "        return t;\n    }\n}\n",
        "call-degree-6": "class A {\n}\n\nclass P {\n    void g(int n) {\n"
                         "        requires(n >= 0);\n        memreq<A>(n*n*n);\n"
                         "        for (i = 1 .. n*n*n) { A a = new A(); }\n    }\n\n"
                         "    void f(int n) {\n        requires(n >= 0);\n"
                         "        memreq<A>(n*n*n*n*n*n);\n        this.g(n*n);\n    }\n}\n",
        "array-degree-5": _p_f("memreq<T>(n);\n        T[] a = new T[n*n*n*n*n];"),
        "maxcap": "class A {\n}\n\nclass B {\n}\n\nclass P {\n    void g(int k) {\n"
                  "        requires(k >= 0);\n        memreq<A>(k);\n"
                  "        for (i = 1 .. k) { A a = new A(); }\n    }\n\n"
                  "    void f(int n) {\n        requires(n >= 0);\n"
                  "        memreq<A>(n*n*n*n*n);\n        memreq<B>(n);\n"
                  "        for (i = 1 .. n) { this.g(i*i*i*i*i); }\n"
                  "        for (j = 1 .. n) { B b = new B(); }\n    }\n}\n",
        "spin": _spin(""),
        "spin-alloc": _spin("A a = new A();\n        "),
        "mutual": "class A {\n}\n\nclass R {\n    void f(int n) {\n"
                  "        requires(n >= 0);\n        memreq<A>(n);\n"
                  "        for (i = 1 .. n) { A a = new A(); }\n"
                  "        if (n > 0) { this.g(n - 1); }\n    }\n\n"
                  "    void g(int k) {\n        requires(k >= 0);\n        this.f(k);\n"
                  "    }\n}\n",
        "max-sum": "class A {\n}\n\nclass P {\n    void f(int n, int m, int p, int q) {\n"
                   "        requires(n >= 0 && m >= 0 && p >= 0 && q >= 0);\n"
                   "        memreq<A>(max(n*n, 1) + max(m*n, 2) + max(m*m, 3) + max(p*n, 4)"
                   " + max(q*m, 5));\n        A a = new A();\n    }\n}\n",
        # sum_over's guard clamped at zero, proved from requires, and flagged
        "fraction-sum": "class A {\n}\n\nclass P {\n"
                        + "\n".join([_sums_f("clamped", "n >= 0 && m >= 0", "1 .. i"),
                                     _sums_f("proved", "m >= 0 && m <= n", "1 .. i"),
                                     _sums_f("flagged", "n >= 0 && m >= 0", "i .. n")]) + "}\n",
    }
    compared = {
        "callee-only": "class A {\n}\n\nclass B {\n}\n\nclass P {\n    void g() {\n"
                       "        memreq<A>(1);\n        A a = new A();\n    }\n\n"
                       "    void f() {\n        memreq<B>(0);\n        this.g();\n    }\n}\n",
        "dest-esc": "class A {\n}\n\nclass P {\n    A f() {\n        memreq<A>(1);\n"
                    "        dest_esc(return);\n        A a = new A();\n        return a;\n"
                    "    }\n}\n",
        "add-esc": "class A {\n}\n\nclass P {\n    A g() {\n        memreq<A>(1);\n"
                   "        esc<A>(return, 1);\n        dest_esc(return);\n"
                   "        A a = new A();\n        return a;\n    }\n\n    A f() {\n"
                   "        memreq<A>(1);\n        add_esc(return, return);\n"
                   "        A x = this.g();\n        return x;\n    }\n}\n",
        "no-clauses": "class A {\n}\n\nclass P {\n    void f() {\n        A a = new A();\n"
                      "    }\n}\n",
        "object-pull": "class A {\n}\n\nclass P {\n    A g() {\n        memreq<object>(1);\n"
                       "        esc<A>(return, 1);\n        dest_esc(return);\n"
                       "        A a = new A();\n        return a;\n    }\n\n    A f() {\n"
                       "        memreq<object>(1);\n        esc<object>(return, 0);\n"
                       "        add_esc(return, return);\n        A x = this.g();\n"
                       "        return x;\n    }\n}\n",
        "object-callee": "class A {\n}\n\nclass B {\n}\n\nclass P {\n    void g(int n) {\n"
                         "        requires(n >= 0);\n        memreq<object>(n + 1);\n"
                         "        A a = new A();\n        for (i = 1 .. n) { B b = new B(); }\n"
                         "    }\n\n    void f(int n) {\n        requires(n >= 0);\n"
                         "        memreq<A>(1);\n        this.g(n);\n    }\n}\n",
        "object-hidden": "class A {\n}\n\nclass P {\n    void g() {\n        memreq<object>(1);\n"
                         "        A a = new A();\n    }\n\n    void f() {\n        memreq<A>(0);\n"
                         "        memreq<object>(1);\n        this.g();\n    }\n}\n",
        "object-undeclared": "class A {\n}\n\nclass B {\n}\n\nclass P {\n    void g() {\n"
                             "        memreq<object>(1);\n        B b = new B();\n    }\n\n"
                             "    void f() {\n        memreq<A>(1);\n        A a = new A();\n"
                             "        this.g();\n    }\n}\n",
        "class-object": "class object {\n}\n\nclass P {\n    void f() {\n"
                        "        memreq<object>(1);\n        object o = new object();\n"
                        "    }\n}\n",
        "tag-Return": "class A {\n    A next;\n}\n\nclass P {\n    A h;\n\n    A f() {\n"
                      "        memreq<A>(3);\n        esc<A>(Return, 2);\n"
                      "        esc<A>(return, 1);\n        bind_esc(Return, this.h);\n"
                      "        dest_esc(Return);\n        A a = new A();\n        this.h = a;\n"
                      "        dest_esc(Return);\n        A b = new A();\n        a.next = b;\n"
                      "        dest_esc(return);\n        A c = new A();\n        return c;\n"
                      "    }\n}\n",
        "array-and-class": "class A {\n}\n\nclass A_arr {\n}\n\nclass P {\n"
                           "    void f(int n) {\n        requires(n >= 0);\n"
                           "        memreq<A[]>(n);\n        memreq<A_arr>(1);\n"
                           "        A[] a = new A[n];\n        A_arr b = new A_arr();\n    }\n}\n",
        "nested-call": "class A {\n}\n\nclass P {\n    void g(int k) {\n"
                       "        requires(k >= 0);\n        memreq<A>(k);\n"
                       "        for (i = 1 .. k) { A a = new A(); }\n    }\n\n"
                       "    void f(int n, int m) {\n        requires(n >= 0 && m >= 0);\n"
                       "        memreq<A>(m);\n        for (j = 1 .. n) {\n"
                       "            for (i = 1 .. 1) { this.g(m); }\n        }\n    }\n}\n",
        "bigfamily-one-logger": (ROOT / "corpus" / "bigfamily.mcl").read_text().replace(
            "memreq<Logger>(n);", "memreq<Logger>(1);"),
    }
    (work / "decision").mkdir()
    lines: list[tuple[list[str], Path | None]] = []
    for name, text in files.items():
        path = work / "decision" / f"{name}.mcl"
        path.write_text(text)
        for fmt in ("human", "json"):
            lines.append((["check", str(path), "--format", fmt], None))
        lines.append((["instrument", str(path)], None))
        lines.append((["ptg", str(path), "--format", "json"], None))
    for name, text in compared.items():
        path, inst = work / "decision" / f"{name}.mcl", work / "decision" / f"{name}.inst.mcl"
        path.write_text(text)
        for mode in ("type", "object"):
            for fmt in ("human", "json"):
                lines.append((["check", str(path), "--mode", mode, "--format", fmt], None))
        lines.append((["instrument", str(path), "--emit", str(inst)], inst))
        for target in (path, inst):
            lines.append((["validate", str(target), "--format", "json"], None))
    return lines


# Two heap shapes on which the oracle's work has grown with the square of
# n: pushes on a receiver that holds a growing list (the receiver fill),
# and a list built and then walked by `t = t.next`.
_SCALING = {
    "receiver-fill": "class Node {\n    Node next;\n}\n\nclass Q {\n    Node head;\n\n"
                     "    void push() {\n        esc<Node>(this, 1);\n        memreq<Node>(1);\n"
                     "        dest_esc(this);\n        Node x = new Node();\n"
                     "        x.next = this.head;\n        this.head = x;\n    }\n\n"
                     "    void fill(int n) {\n        requires(n >= 0);\n"
                     "        memreq<Node>(n);\n        esc<Node>(this, n);\n"
                     "        for (i = 1 .. n) {\n            add_esc(this, this);\n"
                     "            this.push();\n        }\n    }\n}\n\nclass Main {\n"
                     "    Q make(int n) {\n        requires(n >= 0);\n        Q q = new Q();\n"
                     "        q.fill(n);\n        return q;\n    }\n}\n",
    "build-then-walk": "class Cell {\n    Cell next;\n}\n\nclass Main {\n"
                       "    Cell make(int n) {\n        requires(n >= 0);\n"
                       "        Cell head = null;\n        for (i = 1 .. n) {\n"
                       "            Cell cell = new Cell();\n            cell.next = head;\n"
                       "            head = cell;\n        }\n        Cell t = head;\n"
                       "        for (j = 2 .. n) {\n            t = t.next;\n        }\n"
                       "        return t;\n    }\n}\n",
}


def _scaling_matrix(work: Path) -> list[tuple[list[str], Path | None]]:
    """`run --format json` of each scaling shape at n = 200 under both
    `--gc` modes, on files written under work/scaling."""
    (work / "scaling").mkdir()
    lines: list[tuple[list[str], Path | None]] = []
    for name, text in _SCALING.items():
        path = work / "scaling" / f"{name}.mcl"
        path.write_text(text)
        for gc in ("ideal", "method-exit"):
            lines.append((["run", str(path), "--entry", "Main.make", "--args", "[200]",
                           "--format", "json", "--gc", gc], None))
    return lines


# Sweeps that reclaim several objects: y holds x, allocated first, when
# both locals go; and a churn loop whose nodes die two at a time.
_RECLAIM = {
    "cascade": ("class Node {\n    Node next;\n}\n\nclass Main {\n    void cascade() {\n"
                "        Node x = new Node();\n        Node y = new Node();\n"
                "        y.next = x;\n        x = null;\n        y = null;\n    }\n}\n",
                "Main.cascade", "[]"),
    "churn": ("class Node {\n    Node link;\n}\n\nclass Main {\n    void churn(int n) {\n"
              "        requires(n >= 1);\n        for (i = 1 .. n) {\n"
              "            Node a = new Node();\n            Node b = new Node();\n"
              "            a.link = b;\n        }\n    }\n}\n",
              "Main.churn", "[5]"),
}


def _reclaim_matrix(work: Path) -> list[tuple[list[str], Path | None]]:
    """`run` of each reclaim input, as JSON and as human lines, under both
    `--gc` modes, on files written under work/reclaim."""
    (work / "reclaim").mkdir()
    lines: list[tuple[list[str], Path | None]] = []
    for name, (text, entry, args) in _RECLAIM.items():
        path = work / "reclaim" / f"{name}.mcl"
        path.write_text(text)
        for gc in ("ideal", "method-exit"):
            run = ["run", str(path), "--entry", entry, "--args", args, "--gc", gc]
            lines.append(([*run, "--format", "json"], None))
            lines.append((run, None))
    return lines


# Calls that each make one object y: the constructor builds the old array
# and the old three-node list they hang y on, and `Main.all` runs each on
# one receiver, `tail` before `both` replaces the list's head.  `Main.all`
# declares nothing, so `validate` reports it with a witness trace.
_ONE_YOUNG = """class Node {
    Node next;
}

class S {
    Node[] members;
    Node head;

    S() {
        memreq<Node[]>(2);
        memreq<Node>(3);
        esc<Node[]>(this, 2);
        esc<Node>(this, 3);
        dest_esc(this);
        Node[] a = new Node[2];
        this.members = a;
        dest_esc(this);
        Node n1 = new Node();
        dest_esc(this);
        Node n2 = new Node();
        dest_esc(this);
        Node n3 = new Node();
        n1.next = n2;
        n2.next = n3;
        this.head = n1;
    }

    Node make() {
        memreq<Node>(1);
        esc<Node>(return, 1);
        dest_esc(return);
        Node y = new Node();
        return y;
    }

    void add() {
        memreq<Node>(1);
        esc<Node>(this, 1);
        dest_esc(this);
        Node y = new Node();
        this.members[1] = y;
    }

    Node[] none() {
        memreq<Node[]>(0);
        dest_esc(return);
        Node[] y = new Node[0];
        return y;
    }

    Node both() {
        memreq<Node>(1);
        esc<Node>(return, 1);
        esc<Node>(this, 1);
        dest_esc(return);
        Node y = new Node();
        this.head = y;
        return y;
    }

    void lose() {
        memreq<Node>(1);
        Node y = new Node();
    }

    void tail() {
        memreq<Node>(1);
        esc<Node>(this, 1);
        dest_esc(this);
        Node y = new Node();
        Node t = this.head;
        t = t.next;
        t = t.next;
        t.next = y;
    }
}

class Main {
    void all() {
        S s = new S();
        Node a = s.make();
        s.add();
        Node[] z = s.none();
        s.tail();
        Node b = s.both();
        s.lose();
    }
}
"""


def _one_young_matrix(work: Path) -> list[tuple[list[str], Path | None]]:
    """`run Main.all`, as JSON and as human lines, and `validate --format
    json`, under both `--gc` modes, on `_ONE_YOUNG` written under
    work/exits."""
    (work / "exits").mkdir()
    path = work / "exits" / "one-young.mcl"
    path.write_text(_ONE_YOUNG)
    lines: list[tuple[list[str], Path | None]] = []
    for gc in ("ideal", "method-exit"):
        run = ["run", str(path), "--entry", "Main.all", "--args", "[]", "--gc", gc]
        lines.append(([*run, "--format", "json"], None))
        lines.append((run, None))
        lines.append((["validate", str(path), "--format", "json", "--gc", gc], None))
    return lines


def _load_chain(k: int) -> str:
    """w(j) reads one field further down its argument than w(j-1) and
    stores a fresh Box into it; `put` holds no load, and `drop` passes it a
    null."""
    methods = ["    Box w0(Box a) {\n        memreq<Box>(0);\n        Box b = a.next;\n"
               "        return b;\n    }\n"]
    for j in range(1, k):
        f = ("next", "link")[j % 2]
        methods.append(f"    Box w{j}(Box a) {{\n        memreq<Box>({j});\n"
                       f"        Box b = this.w{j - 1}(a);\n        Box c = b.{f};\n"
                       f"        Box d = new Box();\n        d.{f} = c;\n        a.{f} = d;\n"
                       f"        return c;\n    }}\n")
    methods.append(f"    Box top() {{\n        memreq<Box>({k});\n        Box x = new Box();\n"
                   f"        Box y = null;\n        Box r = this.w{k - 1}(x);\n"
                   f"        Box s = this.w{k - 1}(y);\n        x.next = r;\n        return s;\n"
                   "    }\n")
    methods.append("    void put(Box a) {\n        memreq<Box>(1);\n        Box n = new Box();\n"
                   "        a.next = n;\n    }\n")
    methods.append("    void drop() {\n        memreq<Box>(1);\n        Box z = null;\n"
                   "        this.put(z);\n    }\n")
    return ("class Box {\n    Box next;\n    Box link;\n}\n\nclass Walk {\n"
            + "\n".join(methods) + "}\n")


def _loads_matrix(work: Path) -> list[tuple[list[str], Path | None]]:
    """`check` and `ptg` on `_load_chain(8)`, written under work/loads."""
    (work / "loads").mkdir()
    path, dots = work / "loads" / "walk.mcl", work / "loads" / "walk.dot"
    path.write_text(_load_chain(8))
    return [(["check", str(path), "--format", fmt], None) for fmt in ("human", "json")] + [
        (["ptg", str(path), "--format", "json"], None), (["ptg", str(path), "--dot", str(dots)], dots)]


def _key(argv: list[str], tmp: str) -> str:
    """The command line, with the temporary directory written as <work> and
    each argument of over 1,000 characters, such as a deep `--args`,
    shortened to its start and length."""
    args = [a.replace(tmp, "<work>") for a in argv]
    return " ".join(a if len(a) <= 1000 else f"{a[:20]}...({len(a)} characters)"
                    for a in args)


def _emitted(path: Path | None) -> str | None:
    if path is None or not path.exists():
        return None
    if path.is_dir():
        return "".join(f"== {f.name}\n{f.read_text()}" for f in sorted(path.iterdir()))
    return path.read_text()


def run_tree(src: str, seed: int) -> dict[str, list]:
    """Every command line's outcome under one tree, keyed by the command
    line with the temporary directory written as <work>."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    import workloads
    from mclcheck import cli

    outcomes: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = []
        for name in WORKLOADS:
            (work / name).mkdir()
            w = workloads.build(name, seed, ROOT, work / name)
            lines += [(c.argv, c.emit) for c in w.probes + w.commands]
            if name == "static-scale":
                checked = sorted({c.argv[1] for c in w.commands if c.role == "check"})
                lines += [(["ptg", path, "--format", "json"], None) for path in checked]
                lines += [(["ptg", path, "--dot", f"{path}.dot"], Path(f"{path}.dot"))
                          for path in checked if Path(path).name.startswith("chain_")]
        (work / "matrix").mkdir()
        lines += (_corpus_matrix(work) + _hostile_matrix(work) + _decision_matrix(work)
                  + _loads_matrix(work) + _scaling_matrix(work) + _reclaim_matrix(work)
                  + _one_young_matrix(work))
        for argv, emit in lines:
            key = _key(argv, tmp)
            if key in outcomes:
                continue
            out, err = io.StringIO(), io.StringIO()
            try:
                code, raised = cli.main(list(argv), out=out, err=err), None
            except Exception as exc:  # a crash is an outcome to compare
                code, raised = None, f"{type(exc).__name__}: {exc}"
            texts = [out.getvalue(), err.getvalue(), _emitted(emit), raised]
            outcomes[key] = [code] + [None if t is None else t.replace(tmp, "<work>")
                                      for t in texts]
    return outcomes


def _run_in_subprocess(src: str, seed: int) -> subprocess.Popen:
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import same_outputs;"
            " json.dump(same_outputs.run_tree(sys.argv[2], int(sys.argv[3])), sys.stdout)")
    return subprocess.Popen([sys.executable, "-c", code, str(Path(__file__).parent),
                             src, str(seed)], stdout=subprocess.PIPE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", metavar="OLD_SRC")
    ap.add_argument("new", metavar="NEW_SRC")
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)

    procs = [(src, _run_in_subprocess(src, args.seed)) for src in (args.old, args.new)]
    outputs = [proc.communicate()[0] for _, proc in procs]  # wait for both
    for src, proc in procs:
        if proc.returncode != 0:
            print(f"error: the run of {src} exited {proc.returncode}", file=sys.stderr)
            return 2
    old, new = map(json.loads, outputs)
    fields = ("exit code", "stdout", "stderr", "emitted file", "exception")
    keys = list(old) + [k for k in new if k not in old]
    differ = 0
    for key in keys:
        if key not in old or key not in new:
            print(f"DIFFERS  {key}: run by one tree only")
            differ += 1
        elif old[key] != new[key]:
            names = [f for f, a, b in zip(fields, old[key], new[key]) if a != b]
            print(f"DIFFERS  {key}: {', '.join(names)}")
            differ += 1
    print(f"{len(keys) - differ} of {len(keys)} command lines the same, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
