"""Seeded inputs, command lists and known answers for the benchmark workloads.

Nothing here imports mclcheck: programs are generated as text, and every
known answer comes from the generator's own arithmetic (or, for the corpus,
from the file's positive/faulty role), never from running the checker.

A workload is a set of input files to write, a list of `Command`s that
make up one timed pass, a list of robustness probes run once per process,
and a judge that turns each command's result into an `Outcome`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

EXIT_OK, EXIT_VIOLATED, EXIT_UNVERIFIED, EXIT_USAGE = 0, 1, 2, 3
EXIT_CODES = (EXIT_OK, EXIT_VIOLATED, EXIT_UNVERIFIED, EXIT_USAGE)

OBJECT_MODE = {"family_object", "faulty_object_low"}

# static-scale shape: families per variable count, and call-chain lengths
FAMILY_VARS = (2, 3, 4)
FAMILIES_PER_V = 2
VARIANTS = ("exact", "slack", "lowered", "beyond")
CHAIN_LENGTHS = (20, 45, 70, 95, 120)

# oracle-deep shape: list lengths, churn iterations and recursion depths
LIST_LENGTHS = (500, 600, 700, 800, 900, 1000)
CHURN_ITERATIONS = (2500, 5000)
NEST_DEPTHS = (30, 60, 90, 120)   # the interpreter overflows near 200


@dataclass
class Command:
    """One `mclcheck` invocation and what its result must show."""

    argv: list[str]
    input: str                 # name of the input this command belongs to
    role: str                  # check | validate | instrument | ptg | run | ...
    expect: dict = field(default_factory=dict)
    emit: Path | None = None   # file written by `instrument --emit`


@dataclass
class Result:
    command: Command
    exit_code: int | None      # None when cli.main raised
    stdout: str
    stderr: str
    emitted: str | None = None
    raised: str | None = None  # exception and message, when cli.main raised


@dataclass
class Outcome:
    """What is kept of one judged result."""

    input: str
    role: str
    problem: str | None = None   # why the result counts as failed
    known_defect: bool = False   # ... a seed defect that README lists
    verdict: bool = False        # a check/run that decided_share counts
    decided: bool = False        # ... and its definite answer is correct
    faulty: bool = False         # a faulty corpus file's command
    catches: bool = False        # ... that caught the fault


@dataclass
class Tally:
    """Outcomes per case over a whole run.  A case is one command of the
    workload (by input and role), one probe, a faulty corpus file's catch,
    or, in a traced run, a command's repeatability.  Each case counts once
    in `attempted`, and once in `failed` if any pass failed it, so that both
    counts follow from the seed's inputs, not from how many passes fit into
    the run."""

    problems: dict[tuple[str, str], str | None] = field(default_factory=dict)
    decisions: dict[tuple[str, str], bool] = field(default_factory=dict)
    unexpected: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(p is not None for p in self.problems.values())

    @property
    def verdicts(self) -> int:
        return len(self.decisions)

    @property
    def decided(self) -> int:
        return sum(self.decisions.values())

    def record(self, case: tuple[str, str], problem: str | None = None,
               expected: bool = False) -> None:
        """One attempt of `case`; `problem` says why it failed, and an
        `expected` failure is a seed defect that README lists.  The first
        failure of a case is the one kept."""
        self.problems.setdefault(case, None)
        if problem is not None and self.problems[case] is None:
            self.problems[case] = problem
            if not expected:
                self.unexpected.append(problem)

    def add(self, outcomes: list[Outcome]) -> None:
        """Count one pass (or the probes).  A faulty corpus file that no
        command caught is one more failure."""
        caught: dict[str, bool] = {}
        for o in outcomes:
            case = (o.input, o.role)
            if o.verdict:
                self.decisions[case] = self.decisions.get(case, True) \
                    and o.decided
            if o.faulty:
                caught[o.input] = caught.get(o.input, False) or o.catches
            problem = o.problem and f"{o.input} {o.role}: {o.problem}"
            self.record(case, problem, o.known_defect)
        for name, ok in caught.items():
            self.record((name, "caught"),
                        None if ok else f"{name}: caught by no command")


@dataclass
class Workload:
    inputs: dict[str, str]     # file name -> source text
    commands: list[Command]    # one timed pass
    probes: list[Command]      # run once, outside the timed passes
    judge: object              # callable(Result) -> Outcome


# ---------------------------------------------------------------- helpers


def _broken(r: Result) -> str | None:
    """Why a result failed regardless of its answer, or None."""
    if r.raised is not None:
        return f"raised {r.raised}"
    if r.exit_code not in EXIT_CODES:
        return f"exit {r.exit_code} outside 0..3"
    return None


def _json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def judge_probe(r: Result) -> Outcome:
    """A probe passes when the CLI answers exit 2 or 3 with a diagnostic.
    Every probe targets a crash of the seed commit, so a failing probe is
    counted but is not unexpected."""
    problem = _broken(r)
    if problem is None and (r.exit_code not in (EXIT_UNVERIFIED, EXIT_USAGE)
                            or not r.stderr.strip()):
        problem = f"exit {r.exit_code} without a diagnostic"
    return Outcome(r.command.input, "probe", problem, known_defect=True)


# ---------------------------------------------------------------- corpus


def corpus(seed: int, root: Path, work: Path) -> Workload:
    files = sorted((root / "corpus").glob("*.mcl"))
    if not files:
        raise FileNotFoundError(f"no corpus files under {root / 'corpus'}")
    rng = random.Random(seed)
    rng.shuffle(files)
    commands = []
    for path in files:
        name = path.stem
        faulty = name.startswith("faulty_")
        mode = ["--mode", "object"] if name in OBJECT_MODE else []
        inst = work / f"{name}.inst.mcl"
        expect = {"faulty": faulty}
        commands += [
            Command(["check", str(path), "--format", "json", *mode],
                    name, "check", expect),
            Command(["validate", str(path), "--format", "json"],
                    name, "validate", expect),
            Command(["instrument", str(path), "--emit", str(inst)],
                    name, "instrument", expect, emit=inst),
            Command(["ptg", str(path), "--format", "json"],
                    name, "ptg", expect),
            Command(["validate", str(inst), "--format", "json"],
                    name, "validate-instrumented", expect),
        ]
    inputs: dict[str, str] = {}
    probes = _common_probes(work, inputs)
    return Workload(inputs, commands, probes, _judge_corpus)


def _judge_corpus(r: Result) -> Outcome:
    """Criterion 5 of the acceptance suite.

    Positives must check with exit 0 and validate clean, before and after
    instrumentation; an honest exit 2 from `check` only lowers
    decided_share.  A faulty file must be caught by at least one command:
    a non-Verified `check`, or a `validate` that is not clean.
    """
    role, faulty = r.command.role, r.command.expect["faulty"]
    o = Outcome(r.command.input, role, _broken(r) or _corpus_problem(r),
                faulty=faulty)
    if role == "check":
        o.verdict = True
        o.decided = o.problem is None and r.exit_code == (
            EXIT_VIOLATED if faulty else EXIT_OK)
    catches = (EXIT_VIOLATED, EXIT_UNVERIFIED) if role == "check" \
        else (EXIT_VIOLATED,) if role.startswith("validate") else ()
    o.catches = o.problem is None and r.exit_code in catches
    return o


def _corpus_problem(r: Result) -> str | None:
    role, faulty = r.command.role, r.command.expect["faulty"]
    if role == "instrument":
        if r.exit_code != EXIT_OK or not r.emitted:
            return f"instrument exit {r.exit_code}, wrote nothing"
        return None
    if _json(r.stdout) is None:
        return "output is not JSON"
    if role == "ptg" and r.exit_code != EXIT_OK:
        return f"ptg exit {r.exit_code}"
    if not faulty and r.exit_code != EXIT_OK and not (
            role == "check" and r.exit_code == EXIT_UNVERIFIED):
        return f"{role} exit {r.exit_code} on a positive program"
    return None


# ---------------------------------------------------------------- static-scale


def _prod_expr(factors: list[str]) -> str:
    return " * ".join(f"({f})" if "+" in f else f for f in factors)


def _family_source(cls: str, v: int, nest: list[tuple[int, int]],
                   b_lo: list[int], variant: str, extra: int) -> str:
    """One method over v int parameters p1..pv under a requires chain
    p(k+1) <= pk + 1.  Class A is allocated in a loop nest, class B in one
    loop per parameter, class C in a loop over p1; every object is linked
    into a list so that all of them stay live until the method returns."""
    params = [f"p{k + 1}" for k in range(v)]
    pre = [f"{p} >= 0" for p in params]
    pre += [f"{params[k + 1]} <= {params[k]} + 1" for k in range(v - 1)]
    a_exact = _prod_expr([params[k] if lo == 1 else f"{params[k]} + 1"
                          for k, lo in nest])
    zeros = b_lo.count(0)
    b_exact = " + ".join(params + ([str(zeros)] if zeros else []))
    b_slack = f"{v} * p1 + {v * (v - 1) // 2 + zeros + extra}"
    decl_a = f"{a_exact} - 1" if variant == "lowered" else a_exact
    decl_b = b_slack if variant == "slack" else b_exact
    decl_c = "8" if variant == "beyond" else "p1"

    ind = "        "
    body = [f"{ind}A ha = null;"]
    pad = ind
    for level, (k, lo) in enumerate(nest):
        body.append(f"{pad}for (i{level + 1} = {lo} .. {params[k]}) {{")
        pad += "    "
    body += [f"{pad}dest_esc(return);",
             f"{pad}A a = new A();",
             f"{pad}a.next = ha;",
             f"{pad}ha = a;"]
    for _ in nest:
        pad = pad[:-4]
        body.append(f"{pad}}}")
    body.append(f"{ind}B hb = null;")
    for k, lo in enumerate(b_lo):
        body += [f"{ind}for (j{k + 1} = {lo} .. {params[k]}) {{",
                 f"{ind}    B b{k + 1} = new B();",
                 f"{ind}    b{k + 1}.next = hb;",
                 f"{ind}    hb = b{k + 1};",
                 f"{ind}}}"]
    body += [f"{ind}C hc = null;",
             f"{ind}for (m = 1 .. p1) {{",
             f"{ind}    C c = new C();",
             f"{ind}    c.next = hc;",
             f"{ind}    hc = c;",
             f"{ind}}}",
             f"{ind}return ha;"]
    sig = ", ".join(f"int {p}" for p in params)
    lines = [
        "class A {", "    A next;", "}", "",
        "class B {", "    B next;", "}", "",
        "class C {", "    C next;", "}", "",
        f"class {cls} {{",
        f"    A build({sig}) {{",
        f"        requires({' && '.join(pre)});",
        f"        memreq<A>({decl_a});",
        f"        memreq<B>({decl_b});",
        f"        memreq<C>({decl_c});",
        f"        esc<A>(return, {a_exact});",
        "",
        *body,
        "    }",
        "}",
    ]
    return "\n".join(lines) + "\n"


def family_exact(nest, b_lo, point: list[int]) -> dict[str, int]:
    """Exact peak live count per class, and the A objects returned."""
    a = math.prod(point[k] + 1 - lo for k, lo in nest)
    b = sum(p + 1 - lo for p, lo in zip(point, b_lo))
    return {"A": a, "B": b, "C": point[0], "Return.A": a}


def _chain_source(cls: str, k: int, links: list[str], order: list[int]) -> str:
    """k methods; m(j) allocates one Box, calls m(j-1) and links the rest
    behind it, so m(j) returns a list of j+1 boxes."""
    methods = []
    for j in range(k):
        lines = [f"    Box m{j}() {{",
                 f"        memreq<Box>({j + 1});",
                 f"        esc<Box>(return, {j + 1});",
                 "",
                 "        dest_esc(return);",
                 "        Box b = new Box();"]
        if j > 0:
            lines += ["        add_esc(return, return);",
                      f"        Box rest = m{j - 1}();",
                      f"        b.{links[j]} = rest;"]
        lines += ["        return b;", "    }"]
        methods.append("\n".join(lines))
    text = ["class Box {", "    Box next;", "    Box link;", "}", "",
            f"class {cls} {{",
            "\n\n".join(methods[j] for j in order),
            "}"]
    return "\n".join(text) + "\n"


def static_scale(seed: int, root: Path, work: Path) -> Workload:
    rng = random.Random(seed)
    inputs: dict[str, str] = {}
    commands: list[Command] = []
    for v in FAMILY_VARS:
        for f in range(FAMILIES_PER_V):
            # the nest's depth and its number of 0-based loops set the size
            # of the A bound and so the cost of the checker's grid sweeps;
            # both are fixed per family, the seed picks the parameters
            depth = min(v, f + 2)
            zero_at = rng.randrange(depth)
            nest = [(k, 0 if level == zero_at else 1) for level, k in
                    enumerate(sorted(rng.sample(range(v), depth)))]
            b_lo = [rng.choice((0, 1)) for _ in range(v)]
            extra = rng.randint(0, 3)
            for variant in VARIANTS:
                name = f"fam_v{v}_{f}_{variant}"
                inputs[name + ".mcl"] = _family_source(
                    f"Fam{v}x{f}", v, nest, b_lo, variant, extra)
                expect = {"exit": EXIT_VIOLATED if variant in
                          ("lowered", "beyond") else EXIT_OK,
                          "variant": variant, "vars": v,
                          "nest": nest, "b_lo": b_lo}
                commands.append(Command(
                    ["check", str(work / (name + ".mcl")), "--format", "json"],
                    name, "check", expect))
    for k in CHAIN_LENGTHS:
        name = f"chain_k{k}"
        links = [rng.choice(("next", "link")) for _ in range(k)]
        order = list(range(k))
        rng.shuffle(order)
        inputs[name + ".mcl"] = _chain_source(f"Relay{k}", k, links, order)
        commands.append(Command(
            ["check", str(work / (name + ".mcl")), "--format", "json"],
            name, "check", {"exit": EXIT_OK, "variant": "chain", "k": k}))
    rng.shuffle(commands)
    probes = _common_probes(work, inputs) + [_seven_var_probe(work, inputs)]
    return Workload(inputs, commands, probes, _judge_static)


def _judge_static(r: Result) -> Outcome:
    """Exit code against the generator's answer.

    Exit 2 is honest and only lowers decided_share; exit 0/1 opposite to
    the known answer is a wrong definite verdict.  The beyond-grid mutant
    (a constant bound the 0..8 grid cannot refute) coming back Verified is
    the known unsound-grid defect: it counts as failed, but it is not
    unexpected.
    """
    want = r.command.expect["exit"]
    o = Outcome(r.command.input, "check", _broken(r), verdict=True)
    if o.problem is None and _json(r.stdout) is None:
        o.problem = "output is not JSON"
    if o.problem is None and r.exit_code in (EXIT_OK, EXIT_VIOLATED) \
            and r.exit_code != want:
        o.problem = f"exit {r.exit_code}, known answer exit {want}"
        o.known_defect = r.command.expect["variant"] == "beyond"
    o.decided = o.problem is None and r.exit_code == want
    return o


# ---------------------------------------------------------------- oracle-deep


def _deep_source(cls: str, node: str, link: str) -> str:
    return f"""class {node} {{
    {node} next;
    {node} link;
}}

class {cls} {{
    {node} chain(int n) {{
        requires(n >= 0);
        {node} head = null;
        for (i = 1 .. n) {{
            {node} cell = new {node}();
            cell.{link} = head;
            head = cell;
        }}
        return head;
    }}

    void churn(int n) {{
        requires(n >= 1);
        for (i = 1 .. n) {{
            {node} a = new {node}();
            {node} b = new {node}();
            a.{link} = b;
        }}
    }}

    {node} nest(int d) {{
        requires(d >= 0);
        if (d > 0) {{
            {node} head = new {node}();
            {node} tail = nest(d - 1);
            head.{link} = tail;
            return head;
        }}
        return null;
    }}
}}
"""


def deep_expected(entry: str, n: int) -> tuple[int, int]:
    """Closed forms: (peak live nodes, nodes escaping through return)."""
    if entry == "churn":
        return (2 if n == 1 else 3), 0
    return n, n


def oracle_deep(seed: int, root: Path, work: Path) -> Workload:
    rng = random.Random(seed)
    cls = rng.choice(("Deep", "Heap", "Store"))
    node = rng.choice(("Node", "Cell", "Link"))
    link = rng.choice(("next", "link"))
    path = work / "deep.mcl"
    inputs = {"deep.mcl": _deep_source(cls, node, link)}

    # sizes are fixed so that every seed asks for the same work
    sizes = [("chain", n) for n in LIST_LENGTHS]
    sizes += [("churn", n) for n in CHURN_ITERATIONS]
    sizes += [("nest", d) for d in NEST_DEPTHS]
    rng.shuffle(sizes)
    commands = [
        Command(["run", str(path), "--entry", f"{cls}.{entry}",
                 "--args", f"[{n}]", "--format", "json"],
                f"{entry}_{n}", "run",
                {"entry": entry, "n": n, "qname": f"{cls}.{entry}",
                 "node": node})
        for entry, n in sizes]
    probes = [_paren_probe(work, inputs),
              Command(["run", str(root / "corpus" / "listbuild.mcl"),
                       "--entry", "Node.build", "--args", "[250]",
                       "--format", "json"], "listbuild_250", "probe")]
    return Workload(inputs, commands, probes, _judge_deep)


def outermost(observations: list[dict], qname: str) -> dict | None:
    mine = [o for o in observations if o["method"] == qname]
    if not mine:
        return None
    return min(mine, key=lambda o: int(o["instance"].rsplit("@", 1)[1]))


def _judge_deep(r: Result) -> Outcome:
    e = r.command.expect
    o = Outcome(r.command.input, "run", _broken(r), verdict=True)
    if o.problem is None and r.exit_code != EXIT_OK:
        o.problem = f"exit {r.exit_code}"
    doc = _json(r.stdout) if o.problem is None else None
    if o.problem is None and doc is None:
        o.problem = "output is not JSON"
    if o.problem is None:
        obs = outermost(doc["observations"], e["qname"]) or {}
        peak, esc = deep_expected(e["entry"], e["n"])
        got_peak = obs.get("peakLive", {}).get(e["node"], 0)
        got_esc = obs.get("escByTag", {}).get("Return", {}).get(e["node"], 0)
        if (got_peak, got_esc) != (peak, esc):
            o.problem = (f"measured peak {got_peak} / escape {got_esc},"
                         f" closed form {peak} / {esc}")
    o.decided = o.problem is None
    return o


# ---------------------------------------------------------------- probes


def _paren_probe(work: Path, inputs: dict[str, str]) -> Command:
    depth = 600
    expr = "(" * depth + "n" + ")" * depth
    inputs["probe_parens.mcl"] = (
        "class P {\n    int f(int n) {\n"
        f"        int x = {expr};\n        return x;\n    }}\n}}\n")
    return Command(["check", str(work / "probe_parens.mcl"), "--format",
                    "json"], "probe_parens", "probe")


def _loop_nest_probe(work: Path, inputs: dict[str, str]) -> Command:
    depth = 5
    lines = ["class A {", "}", "", "class P {", "    void f(int n) {",
             "        requires(n >= 0);",
             f"        memreq<A>({' * '.join(['n'] * depth)});", ""]
    ind = "        "
    for level in range(depth):
        lines.append(f"{ind}for (i{level} = 1 .. n) {{")
        ind += "    "
    lines.append(f"{ind}A a = new A();")
    for _ in range(depth):
        ind = ind[:-4]
        lines.append(f"{ind}}}")
    lines += ["    }", "}"]
    inputs["probe_loopnest.mcl"] = "\n".join(lines) + "\n"
    return Command(["check", str(work / "probe_loopnest.mcl"), "--format",
                    "json"], "probe_loopnest", "probe")


def _seven_var_probe(work: Path, inputs: dict[str, str]) -> Command:
    params = [f"p{k}" for k in range(1, 8)]
    inputs["probe_sevenvar.mcl"] = (
        "class A {\n}\n\nclass P {\n"
        f"    void f({', '.join(f'int {p}' for p in params)}) {{\n"
        f"        requires({' && '.join(f'{p} >= 0' for p in params)});\n"
        f"        memreq<A>(({' + '.join(params)} + 2) / 2);\n\n"
        "        A a = new A();\n    }\n}\n")
    return Command(["check", str(work / "probe_sevenvar.mcl"), "--format",
                    "json"], "probe_sevenvar", "probe")


def _common_probes(work: Path, inputs: dict[str, str]) -> list[Command]:
    return [_paren_probe(work, inputs), _loop_nest_probe(work, inputs)]


BUILDERS = {
    "corpus": corpus,
    "static-scale": static_scale,
    "oracle-deep": oracle_deep,
}


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Generate a workload and write its input files into `work`."""
    w = BUILDERS[name](seed, root, work)
    for fname, text in w.inputs.items():
        (work / fname).write_text(text)
    return w
