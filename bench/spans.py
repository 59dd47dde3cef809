"""In-memory spans around mclcheck's layer entry points, and the per-layer
metrics derived from them.

`Tracer.attached()` replaces each entry point with a wrapper under the
name its callers look up (`cli.instrument`, not `instrument.instrument`,
because `cli` imported it by name), and restores the originals on exit.
Counters are read only from what the wrapped functions return.  Nothing
under `src/` knows it is being traced; spans inside the program itself
are later work.
"""

from __future__ import annotations

import importlib
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

def _parse_facts(args, program):
    return {"source": args[0]}


def _analysis_facts(args, analysis):
    graphs = analysis.graphs.values()
    return {"nodes": sum(len(g.N) for g in graphs),
            "edges": sum(len(g.E) for g in graphs)}


def _row_facts(args, rows):
    proofs = [r.verdict.method for r in rows]
    return {"clauses": len(rows),
            "coefficient": proofs.count("coefficient"),
            "grid_affine": proofs.count("grid-affine"),
            "grid": proofs.count("grid"),
            "unverified": sum(r.verdict.kind == "Unverified" for r in rows)}


def _instrument_facts(args, inst):
    return {"counters": len(inst.counter_index)}


def _report_facts(args, report):
    return {"runs": report.runs, "skipped": report.points_skipped}


def _run_facts(args, result):
    return {"events": len(result.trace)}


# (module, attribute its callers look up, span name, what to keep of the
# call: a function of its arguments and return value, applied as it returns
# so that no result outlives its span)
ENTRY_POINTS = (
    ("mclcheck.cli", "main", "cli.main", None),
    ("mclcheck.frontend", "parse", "frontend.parse", _parse_facts),
    ("mclcheck.frontend", "resolve", "frontend.resolve", None),
    ("mclcheck.callgraph", "sccs", "callgraph.sccs", None),
    ("mclcheck.escape", "analyze", "escape.analyze", _analysis_facts),
    ("mclcheck.summary", "summarize", "summary.summarize", None),
    ("mclcheck.summary", "check_method", "summary.check_method", _row_facts),
    ("mclcheck.summary", "entails_leq", "symexpr.entails_leq", None),
    ("mclcheck.cli", "instrument", "instrument.instrument",
     _instrument_facts),
    ("mclcheck.cli", "validate", "oracle.validate", _report_facts),
    ("mclcheck.oracle", "run_point", "oracle.run_point", _run_facts),
    ("mclcheck.cli", "run", "oracle.run", _run_facts),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "facts")

    def __init__(self, name, start, parent, command):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent         # index of the enclosing span, or None
        self.command = command       # the benchmark Command being run
        self.facts: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one pass at a time; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, facts):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent, self.command)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if facts is not None:
                span.facts = facts(args, result)
            return result
        return traced

    @contextmanager
    def attached(self):
        saved = []
        try:
            for modname, attr, name, facts in ENTRY_POINTS:
                mod = importlib.import_module(modname)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original, facts))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------- metrics


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope; 0 when there is no spread in x."""
    if len(xs) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _pass_metrics(spans: list[Span], tokens_of) -> dict[str, float]:
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds
    ms: dict[str, float] = {}
    count: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for i, s in enumerate(spans):
        ms[s.name] = ms.get(s.name, 0.0) + s.seconds * 1e3
        count[s.name] = count.get(s.name, 0) + 1
        self_ms[s.name] = self_ms.get(s.name, 0.0) + \
            (s.seconds - child_seconds[i]) * 1e3

    def total(name, fact):
        return sum(s.facts.get(fact, 0) for s in spans if s.name == name)

    events = total("oracle.run_point", "events") + total("oracle.run", "events")
    run_ms = ms.get("oracle.run_point", 0.0) + ms.get("oracle.run", 0.0)
    sources = [s.facts["source"] for s in spans if "source" in s.facts]
    front_s = (ms.get("frontend.parse", 0.0)
               + ms.get("frontend.resolve", 0.0)) / 1e3
    kib = sum(len(src.encode()) for src in sources) / 1024
    return {
        "oracle.validate_ms": ms.get("oracle.validate", 0.0),
        "oracle.runs": total("oracle.validate", "runs")
        + sum(1 for s in spans if s.name == "oracle.run" and s.facts),
        "oracle.points_skipped": total("oracle.validate", "skipped"),
        "oracle.trace_events": events,
        "oracle.us_per_event": run_ms * 1e3 / events if events else 0.0,
        "symexpr.entails_ms": ms.get("symexpr.entails_leq", 0.0),
        "symexpr.entails_calls": count.get("symexpr.entails_leq", 0),
        "symexpr.proof.coefficient": total("summary.check_method",
                                           "coefficient"),
        "symexpr.proof.grid_affine": total("summary.check_method",
                                           "grid_affine"),
        "symexpr.proof.grid": total("summary.check_method", "grid"),
        "symexpr.unverified_rows": total("summary.check_method",
                                         "unverified"),
        "escape.analyze_ms": ms.get("escape.analyze", 0.0),
        "escape.ptg_nodes": total("escape.analyze", "nodes"),
        "escape.ptg_edges": total("escape.analyze", "edges"),
        "summary.summarize_ms": ms.get("summary.summarize", 0.0),
        "summary.check_method_self_ms": self_ms.get(
            "summary.check_method", 0.0),
        "summary.clauses": total("summary.check_method", "clauses"),
        "frontend.parse_ms": ms.get("frontend.parse", 0.0),
        "frontend.resolve_ms": ms.get("frontend.resolve", 0.0),
        "frontend.tokens": sum(tokens_of(src) for src in sources),
        "frontend.kb_per_s": kib / front_s if front_s else 0.0,
        "callgraph.sccs_ms": ms.get("callgraph.sccs", 0.0),
        "instrument.instrument_ms": ms.get("instrument.instrument", 0.0),
        "instrument.counters": total("instrument.instrument", "counters"),
        "cli.self_ms": self_ms.get("cli.main", 0.0),
    }


def layer_metrics(passes: list[list[Span]], tokens_of) -> dict[str, float]:
    """Per-pass medians over the traced passes, plus pooled statistics.

    `oracle.chain_slope` is the log-log slope of `run` time over list
    length on the oracle-deep chains; `symexpr.vars_slope` is the slope of
    log10(entailment time of a slack-bound family file) over the family's
    variable count.  Either is 0 on a workload without that family.
    """
    per_pass = [_pass_metrics(spans, tokens_of) for spans in passes]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    spans = [s for p in passes for s in p]

    points = [s.seconds * 1e3 for s in spans if s.name == "oracle.run_point"]
    out["oracle.run_point_ms_p50"] = statistics.median(points) if points \
        else 0.0

    chain = [(s.command.expect["n"], s.seconds) for s in spans
             if s.name == "oracle.run"
             and s.command.expect.get("entry") == "chain"]
    out["oracle.chain_slope"] = _slope(
        [math.log(n) for n, _ in chain], [math.log(t) for _, t in chain])

    family: dict[tuple[int, int], list] = {}   # [variables, seconds]
    for i, p in enumerate(passes):
        for s in p:
            e = s.command.expect if s.command else {}
            if s.name == "symexpr.entails_leq" and e.get("variant") == "slack":
                key = (i, id(s.command))   # one family file in one pass
                family.setdefault(key, [e["vars"], 0.0])[1] += s.seconds
    out["symexpr.vars_slope"] = _slope(
        [v for v, _ in family.values()],
        [math.log10(t) for _, t in family.values()])
    return out
