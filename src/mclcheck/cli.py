"""Batch command-line driver: check, instrument, run, ptg, validate."""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import escape
from .frontend import FrontendFailure, load, pretty
from .instrument import instrument
from .oracle import (ArgumentError, GridTooLarge, OracleError, Ref,
                     RequiresViolation, StackExhausted, StepBudgetExceeded,
                     run, validate)
from .summary import CyclicWithoutContract, check_program
from .symexpr import DegreeOverflow, UnboundedSpace, VerdictKind

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_UNVERIFIED = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class InputError(Exception):
    """A named input could not be read or understood."""

    def __init__(self, diagnostics: list[dict]):
        super().__init__(diagnostics[0]["message"] if diagnostics else "")
        self.diagnostics = diagnostics


class AnalysisStop(Exception):
    """Verification cannot proceed; the result is inconclusive, not wrong."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # unverified results, so route usage problems through our own code
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mclcheck",
                description="Static checker and runtime oracle for "
                            "memory-consumption contracts.")
    sub = p.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(sp):
        sp.add_argument("--format", choices=("human", "json"),
                        default="human", help="output format")

    c = sub.add_parser("check", help="verify declared bounds statically", description=(
        "Verified means proved for every nonnegative integer input that satisfies "
        "requires; Violated carries a witness; Unverified gives a reason."))
    c.add_argument("files", nargs="+", metavar="FILE")
    c.add_argument("--mode", choices=("type", "object"), default="type",
                   help="count per class (type) or all objects together")
    common(c)

    i = sub.add_parser("instrument", help="emit source with live counters")
    i.add_argument("file", metavar="FILE")
    i.add_argument("--emit", metavar="PATH",
                   help="write instrumented source here instead of stdout")

    r = sub.add_parser("run", help="interpret one entry point and measure")
    r.add_argument("file", metavar="FILE")
    r.add_argument("--entry", required=True, metavar="Class.method")
    r.add_argument("--args", default="[]", metavar="JSON",
                   help="argument list as a JSON array")
    r.add_argument("--gc", choices=("ideal", "method-exit"), default="ideal",
                   help="reclaim at every statement or only at returns")
    common(r)

    g = sub.add_parser("ptg", help="dump per-method points-to graphs")
    g.add_argument("file", metavar="FILE")
    g.add_argument("--dot", metavar="DIR",
                   help="write one .dot file per method into DIR")
    common(g)

    v = sub.add_parser("validate", help="sweep argument grids under the oracle", description=(
        "Reports each violated clause once, with its least witness: of the activations "
        "that exceed it, the one whose entry values, read in sorted variable order, are "
        "lexicographically least (the first in the sweep on a tie), with its run's trace. "
        "Each failed ensure is reported once, at its first failure. A record counts its "
        "activations (how many failed) and its runs (how many harness runs, an entry "
        "method at one grid point, had at least one such activation)."))
    v.add_argument("file", metavar="FILE")
    v.add_argument("--grid", type=int, default=8, metavar="N",
                   help="parameters range over 0..N")
    v.add_argument("--gc", choices=("ideal", "method-exit"), default="ideal")
    common(v)
    return p


def _io_error(exc: OSError, path) -> InputError:
    return InputError([{"severity": "error", "code": "io-error",
                        "message": str(exc), "file": str(path)}])


def _read(path: str) -> str:
    try:
        return pathlib.Path(path).read_text()
    except OSError as exc:
        raise _io_error(exc, path)


def _write(path, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text)
    except OSError as exc:
        raise _io_error(exc, path)


def _load_file(path: str):
    try:
        return load(_read(path), path)
    except FrontendFailure as exc:
        raise InputError([d.to_json() for d in exc.diagnostics])


def _dump(data, out) -> None:
    out.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------ check


def _print_report_human(path: str, report, out) -> None:
    out.write(f"{path}\n")
    for row in report.rows:
        j = row.to_json()
        declared = j["declared"] if j["declared"] is not None else "(none)"
        out.write(f"  {j['verdict']:<10}  {j['method']}  {j['clause']}"
                  f"  declared {declared}  computed {j['computed']}\n")
        if "witness" in j:
            pairs = ", ".join(f"{k}={v}" for k, v in j["witness"].items())
            out.write(f"              witness: {pairs}\n")
        if "reason" in j:
            out.write(f"              reason: {j['reason']}\n")
        for note in j.get("notes", ()):
            out.write(f"              note: {note}\n")
    out.write(f"  overall: {report.overall}\n")


def _unverified_note(path: str, report) -> str:
    """Why a report exits 2: how many of its clauses are unverified, and the
    first of them with its reason."""
    rows = [r for r in report.rows if r.verdict.kind == VerdictKind.UNVERIFIED]
    first = rows[0]
    return (f"inconclusive: {path}: {len(rows)} of {len(report.rows)} clauses"
            f" unverified (first: {first.method} {first.clause}:"
            f" {first.verdict.reason})\n")


def _cmd_check(ns, out, err) -> int:
    results = []
    for path in ns.files:
        prog = _load_file(path)
        try:
            report = check_program(prog, ns.mode)
        except (CyclicWithoutContract, DegreeOverflow, UnboundedSpace) as exc:
            raise AnalysisStop(f"{path}: {exc}")
        results.append((path, report))

    if ns.format == "json":
        docs = [{"file": path, **report.to_json()} for path, report in results]
        _dump(docs[0] if len(docs) == 1 else docs, out)
    else:
        for path, report in results:
            _print_report_human(path, report, out)

    for path, report in results:
        if report.exit_code() == EXIT_UNVERIFIED:
            err.write(_unverified_note(path, report))
    codes = {report.exit_code() for _, report in results}
    return next((c for c in (EXIT_VIOLATED, EXIT_UNVERIFIED) if c in codes), EXIT_OK)


# ------------------------------------------------------------ instrument


def _cmd_instrument(ns, out, err) -> int:
    prog = _load_file(ns.file)
    text = pretty(instrument(prog).program)
    if ns.emit:
        _write(ns.emit, text)
    else:
        out.write(text)
    return EXIT_OK


# ------------------------------------------------------------ run


def _event_json(ev) -> dict:
    if ev[0] == "alloc":
        _, oid, cls, weight, site, by = ev
        return {"event": "alloc", "oid": oid, "class": cls,
                "weight": weight, "site": site, "by": by}
    if ev[0] == "reclaim":
        return {"event": "reclaim", "oid": ev[1]}
    return {"event": ev[0], "method": ev[1], "instance": ev[2]}


def _value_json(v):
    return {"$ref": v.oid} if isinstance(v, Ref) else v


def _cmd_run(ns, out, err) -> int:
    prog = _load_file(ns.file)
    try:
        args = json.loads(ns.args)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--args is not valid JSON: {exc}")
    if not isinstance(args, list):
        raise UsageError("--args must be a JSON array")
    try:
        prog.method(ns.entry)
    except KeyError:
        raise UsageError(f"no such method: {ns.entry}")

    try:
        result = run(prog, ns.entry, args, gc=ns.gc)
    except ArgumentError as exc:
        raise UsageError(str(exc))
    except (StepBudgetExceeded, StackExhausted) as exc:
        # the run was cut short, which says nothing about the program
        raise AnalysisStop(f"{ns.file}: {type(exc).__name__}: {exc}")
    except RequiresViolation as exc:
        if exc.direct:
            # the invocation itself sits outside the contract
            raise UsageError(f"{ns.entry} precondition rejects these"
                             f" arguments: {exc}")
        raise

    if ns.format == "json":
        _dump({
            "entry": ns.entry,
            "gc": ns.gc,
            "returnValue": _value_json(result.return_value),
            "trace": [_event_json(ev) for ev in result.trace],
            "observations": [o.to_json() for o in result.observations],
            "assertionFailures": [
                {"method": f.method, "instance": f.instance, "cond": f.cond}
                for f in result.assertion_failures],
        }, out)
    else:
        for ev in result.trace:
            j = _event_json(ev)
            if j["event"] == "alloc":
                out.write(f"alloc    oid={j['oid']} {j['class']}"
                          f" weight={j['weight']} at {j['site']}"
                          f" by {j['by']}\n")
            elif j["event"] == "reclaim":
                out.write(f"reclaim  oid={j['oid']}\n")
            else:
                out.write(f"{j['event']:<8} {j['instance']}\n")
        for o in result.observations:
            peaks = " ".join(f"{k}={v}" for k, v in sorted(o.peak.items()))
            out.write(f"measured {o.instance}: peak {peaks or '(nothing)'}\n")
            for tag, counts in sorted(o.esc.items()):
                inner = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                out.write(f"         esc {tag}: {inner}\n")
        for f in result.assertion_failures:
            out.write(f"ENSURE FAILED {f.instance}: {f.cond}\n")
        out.write(f"return value: {_value_json(result.return_value)!r}\n")

    return EXIT_VIOLATED if result.assertion_failures else EXIT_OK


# ------------------------------------------------------------ ptg


def _cmd_ptg(ns, out, err) -> int:
    prog = _load_file(ns.file)
    analysis = escape.analyze(prog)
    sites = escape.site_id_map(prog)
    dots = {q: escape.to_dot(q, g, sites)
            for q, g in sorted(analysis.graphs.items())}

    if ns.dot:
        outdir = pathlib.Path(ns.dot)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _io_error(exc, outdir)
        written = []
        for qname, text in dots.items():
            target = outdir / f"{qname}.dot"
            _write(target, text)
            written.append(str(target))
        if ns.format == "json":
            _dump({"written": written}, out)
        else:
            for w in written:
                out.write(f"wrote {w}\n")
    elif ns.format == "json":
        _dump(dots, out)
    else:
        out.write("\n".join(dots.values()))
        out.write("\n")
    return EXIT_OK


# ------------------------------------------------------------ validate


def _cmd_validate(ns, out, err) -> int:
    if ns.grid < 0:
        raise UsageError(f"--grid must be nonnegative, not {ns.grid}")
    prog = _load_file(ns.file)
    try:
        report = validate(prog, hi=ns.grid, gc=ns.gc)
    except GridTooLarge as exc:
        raise AnalysisStop(f"{ns.file}: {exc}")

    if ns.format == "json":
        _dump({"file": ns.file, **report.to_json()}, out)
    else:
        for v in report.violations:
            env = ", ".join(f"{k}={x}" for k, x in sorted(v.entry_env.items()))
            out.write(f"VIOLATED  {v.method} {v.clause}: declared"
                      f" {v.declared} = {v.declared_value}, observed"
                      f" {v.observed} (entry {env});"
                      f" {v.activations} activations in {v.runs} runs\n")
        for f in report.ensure_failures:
            out.write(f"ENSURE FAILED  {f.entry} at {f.point}: {f.failure.cond};"
                      f" {f.activations} activations in {f.runs} runs\n")
        for entry, point, callee in report.requires_aborts:
            out.write(f"REQUIRES ABORT  {entry} at {point}:"
                      f" callee {callee} precondition\n")
        for entry, point, msg in report.runtime_errors:
            out.write(f"RUNTIME ERROR  {entry} at {point}: {msg}\n")
        for qname, reason in sorted(report.methods_skipped):
            out.write(f"skipped {qname}: {reason}\n")
        out.write(f"{report.runs} runs, {report.points_skipped} grid points"
                  f" outside preconditions: "
                  f"{'clean' if report.clean else 'NOT clean'}\n")
    return EXIT_OK if report.clean else EXIT_VIOLATED


# ------------------------------------------------------------ entry


_COMMANDS = {
    "check": _cmd_check,
    "instrument": _cmd_instrument,
    "run": _cmd_run,
    "ptg": _cmd_ptg,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return _COMMANDS[ns.command](ns, out, err)
    except UsageError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except InputError as exc:
        for d in exc.diagnostics:
            err.write(json.dumps(d, sort_keys=True) + "\n")
        return EXIT_USAGE
    except AnalysisStop as exc:
        err.write(f"inconclusive: {exc}\n")
        return EXIT_UNVERIFIED
    except OracleError as exc:
        err.write(f"runtime error: {type(exc).__name__}: {exc}\n")
        return EXIT_VIOLATED


if __name__ == "__main__":
    sys.exit(main())
