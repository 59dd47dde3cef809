"""Batch command-line driver: check, instrument, run, ptg, validate.

`main` alone maps an answer or an exception to an exit code: 0 Verified (or
nothing to decide), 1 Violated, 2 Unverified, 3 usage.  `validate` exits 0
when clean, 1 on any finding, 2 when `inconclusive` (its runs cut short at
the interpreter's step or stack limit) is all it found, and 3 on usage.
Output that cannot be written (a closed stream, a pipe closed early, a full
device) exits 3 too, with one `io-error` diagnostic on stderr if stderr can
still be written."""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import escape
from .frontend import FrontendFailure, load, pretty
from .instrument import instrument
from .oracle import (ArgumentError, GridTooLarge, OracleError, Ref, RunCutShort,
                     run, validate)
from .summary import check_program
from .symexpr import VerdictKind

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_UNVERIFIED = 2
EXIT_USAGE = 3

# a command answers with a verdict kind, or with None when it decides nothing
_EXIT = {None: EXIT_OK, VerdictKind.VERIFIED: EXIT_OK,
         VerdictKind.VIOLATED: EXIT_VIOLATED, VerdictKind.UNVERIFIED: EXIT_UNVERIFIED}


class UsageError(Exception):
    pass


class InputError(Exception):
    """A named input could not be read or understood."""

    def __init__(self, diagnostics: list[dict]):
        super().__init__(diagnostics[0]["message"] if diagnostics else "")
        self.diagnostics = diagnostics


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # unverified results, so route usage problems through our own code
    def error(self, message):
        raise UsageError(message)


@functools.cache  # one per process: argparse costs more to build than to use
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
        "Checks each method against its obligations, where an absent clause is zero "
        "unless an object clause covers its tag. "
        "Reports each violated clause once, with its least witness: of the activations "
        "that exceed it, the one whose entry values, read in sorted variable order, are "
        "lexicographically least (the first in the sweep on a tie), with its run's trace. "
        "Each failed ensure is reported once, at its first failure. A record counts its "
        "activations (how many failed) and its runs (how many harness runs, an entry "
        "method at one grid point, had at least one such activation). Runs cut short at "
        "the step or stack limit are inconclusive. Exits 0 when clean, 1 on any finding, "
        "2 when inconclusive runs are all it found, 3 on a usage error."))
    v.add_argument("file", metavar="FILE")
    v.add_argument("--grid", type=int, default=8, metavar="N",
                   help="parameters range over 0..N")
    v.add_argument("--gc", choices=("ideal", "method-exit"), default="ideal",
                   help="reclaim at every statement or only at returns")
    common(v)
    return p


def _io_error(exc: OSError | UnicodeDecodeError, path) -> InputError:
    return InputError([{"severity": "error", "code": "io-error",
                        "message": str(exc), "file": str(path)}])


def _read(path: str) -> str:
    try:
        return pathlib.Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
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


def _unencodable(o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


_SCALARS = frozenset({str, int, float, bool, type(None)})
_STR = frozenset({str})


@functools.cache
def _level(depth: int):
    """What a container at indent `depth` is written with: a C encoder that
    puts a comma, a newline and the members' indent between the members of
    a scalar-only container, that newline and indent, and the newline and
    indent before the closing bracket."""
    inner = "\n" + "  " * (depth + 1)
    encoder = c_make_encoder(None, _unencodable, encode_basestring_ascii, None,
                             ": ", "," + inner, True, False, True)
    return encoder, inner, "\n" + "  " * depth


class _JSONText(str):
    """Text that is already JSON, written for the indent of the place it
    fills in a document."""


def _encode(value, depth: int) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for a value at indent
    `depth`, except that a non-str key raises TypeError and a `_JSONText`
    is written as it is.  A non-empty container whose members are all
    scalars is one call of the C encoder; Python recurses only through a
    container that holds another container or a `_JSONText`, which is how a
    command splices in text it wrote itself (`run`'s trace)."""
    encoder, inner, outer = _level(depth)
    if isinstance(value, dict):
        if not value:
            return "{}"
        if (_SCALARS.issuperset(map(type, value.values()))
                and _STR.issuperset(map(type, value))):
            body = "".join(encoder(value, 0))[1:-1]
        else:  # encode_basestring_ascii raises TypeError on a non-str key
            body = ("," + inner).join(
                encode_basestring_ascii(key) + ": "
                + _encode(value[key], depth + 1) for key in sorted(value))
        return f"{{{inner}{body}{outer}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _SCALARS.issuperset(map(type, value)):
            body = "".join(encoder(value, 0))[1:-1]
        else:
            body = ("," + inner).join([_encode(member, depth + 1) for member in value])
        return f"[{inner}{body}{outer}]"
    if type(value) is _JSONText:
        return value
    return "".join(encoder(value, 0))


def _dump(data, out) -> None:
    out.write(_encode(data, 0))
    out.write("\n")


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
            out.write(f"              witness: {pairs or '(no variables)'}\n")
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


def _cmd_check(ns, out, err) -> str:
    results = []
    # a loop, not a comprehension, which is a frame of its own on 3.11: how
    # deep the parser may nest depends on how deep the stack already is
    for path in ns.files:
        results.append((path, check_program(_load_file(path), ns.mode)))

    if ns.format == "json":
        docs = [{"file": path, **report.to_json()} for path, report in results]
        _dump(docs[0] if len(docs) == 1 else docs, out)
    else:
        for path, report in results:
            _print_report_human(path, report, out)

    for path, report in results:
        if report.overall == VerdictKind.UNVERIFIED:
            err.write(_unverified_note(path, report))
    return VerdictKind.worst(report.overall for _, report in results)


# ------------------------------------------------------------ instrument


def _cmd_instrument(ns, out, err) -> None:
    prog = _load_file(ns.file)
    text = pretty(instrument(prog).program)
    if ns.emit:
        _write(ns.emit, text)
    else:
        out.write(text)


# ------------------------------------------------------------ run


# What `run` writes for each kind of trace event, read from the tuple the
# interpreter appends: ("alloc", oid, class, weight, site, by),
# ("reclaim", oid), and (kind, qname, instance) for "call" and "ret".  Per
# kind: the event's JSON text and its human line.  The JSON text is what
# `json.dumps(..., indent=2, sort_keys=True)` writes for a member of the
# document's "trace" list, a sorted-key object at depth 2; `_trace_json`
# joins the members into that list at depth 1, and `_encode` splices the
# list into the document as it is.  Oids and weights are ints, written
# through %d; every other field is a str, written through
# encode_basestring_ascii.
_q = encode_basestring_ascii
_ALLOC = ('{\n      "by": %s,\n      "class": %s,\n      "event": "alloc",\n'
          '      "oid": %d,\n      "site": %s,\n      "weight": %d\n    }')
_CALL_OR_RET = '{\n      "event": "%s",\n      "instance": %s,\n      "method": %s\n    }'
_EVENTS = {
    "alloc": (lambda ev: _ALLOC % (_q(ev[5]), _q(ev[2]), ev[1], _q(ev[4]), ev[3]),
              lambda ev: "alloc    oid=%d %s weight=%d at %s by %s\n" % ev[1:]),
    "reclaim": (lambda ev: '{\n      "event": "reclaim",\n      "oid": %d\n    }' % ev[1],
                lambda ev: "reclaim  oid=%d\n" % ev[1]),
    "call": (lambda ev: _CALL_OR_RET % (ev[0], _q(ev[2]), _q(ev[1])),
             lambda ev: "%-8s %s\n" % (ev[0], ev[2])),
}
_EVENTS["ret"] = _EVENTS["call"]


def _trace_json(trace) -> _JSONText:
    """`run`'s trace as JSON text at depth 1, the value of the document's
    "trace" key."""
    if not trace:
        return _JSONText("[]")
    members = ",\n    ".join([_EVENTS[ev[0]][0](ev) for ev in trace])
    return _JSONText(f"[\n    {members}\n  ]")


def _value_json(v):
    return {"$ref": v.oid} if isinstance(v, Ref) else v


def _cmd_run(ns, out, err) -> str:
    prog = _load_file(ns.file)
    try:
        args = json.loads(ns.args)
    except (ValueError, RecursionError) as exc:  # malformed JSON, or a deep nest
        raise UsageError(f"--args is not valid JSON: {exc}")
    if not isinstance(args, list):
        raise UsageError("--args must be a JSON array")
    result = run(prog, ns.entry, args, gc=ns.gc)

    if ns.format == "json":
        _dump({
            "entry": ns.entry,
            "gc": ns.gc,
            "returnValue": _value_json(result.return_value),
            "trace": _trace_json(result.trace),
            "observations": [o.to_json() for o in result.observations],
            "assertionFailures": [
                {"method": f.method, "instance": f.instance, "cond": f.cond}
                for f in result.assertion_failures],
        }, out)
    else:
        for ev in result.trace:
            out.write(_EVENTS[ev[0]][1](ev))
        for o in result.observations:
            peaks = " ".join(f"{k}={v}" for k, v in sorted(o.peak.items()))
            out.write(f"measured {o.instance}: peak {peaks or '(nothing)'}\n")
            for tag, counts in sorted(o.esc.items()):
                inner = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                out.write(f"         esc {tag}: {inner}\n")
        for f in result.assertion_failures:
            out.write(f"ENSURE FAILED {f.instance}: {f.cond}\n")
        out.write(f"return value: {json.dumps(_value_json(result.return_value))}\n")

    return VerdictKind.VIOLATED if result.assertion_failures else VerdictKind.VERIFIED


# ------------------------------------------------------------ ptg


def _cmd_ptg(ns, out, err) -> None:
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


# ------------------------------------------------------------ validate


def _cmd_validate(ns, out, err) -> str:
    if ns.grid < 0:
        raise UsageError(f"--grid must be nonnegative, not {ns.grid}")
    report = validate(_load_file(ns.file), hi=ns.grid, gc=ns.gc)

    if ns.format == "json":
        _dump({"file": ns.file, **report.to_json()}, out)
    else:
        for v in report.violations:
            env = ", ".join(f"{k}={x}" for k, x in sorted(v.entry_env.items())) \
                or "(no variables)"
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
        for entry, point, msg in report.inconclusive:
            out.write(f"INCONCLUSIVE  {entry} at {point}: {msg}\n")
        for qname, reason in sorted(report.methods_skipped):
            out.write(f"skipped {qname}: {reason}\n")
        out.write(f"{report.runs} runs, {report.points_skipped} grid points"
                  f" outside preconditions: "
                  f"{'clean' if report.clean else 'NOT clean'}\n")
    if report.overall == VerdictKind.UNVERIFIED:
        (entry, point, msg), cut = report.inconclusive[0], len(report.inconclusive)
        err.write(f"inconclusive: {ns.file}: {cut} of {report.runs + cut} grid runs"
                  f" cut short (first: {entry} at {point}: {msg})\n")
    return report.overall


# ------------------------------------------------------------ entry


_COMMANDS = {
    "check": _cmd_check,
    "instrument": _cmd_instrument,
    "run": _cmd_run,
    "ptg": _cmd_ptg,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    # every number comes from the file, at a size polynomial in the file's,
    # so ints convert to and from text without the interpreter's digit limit
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if out is None or err is None:  # a descriptor closed before the start
            raise OSError("standard output or error is closed")
        # the command runs in main's own frame, not in a helper's: how deep
        # the parser may nest depends on how deep the stack already is
        try:
            ns = _build_parser().parse_args(argv)
            code = _EXIT[_COMMANDS[ns.command](ns, out, err)]
        except (UsageError, ArgumentError) as exc:  # an OutsidePrecondition too
            err.write(f"error: {exc}\n")
            code = EXIT_USAGE
        except InputError as exc:
            for d in exc.diagnostics:
                err.write(json.dumps(d, sort_keys=True) + "\n")
            code = EXIT_USAGE
        except GridTooLarge as exc:  # validate's grid, before any run
            err.write(f"inconclusive: {ns.file}: {exc}\n")
            code = EXIT_UNVERIFIED
        except RunCutShort as exc:  # which says nothing about the program
            err.write(f"inconclusive: {ns.file}: {type(exc).__name__}: {exc}\n")
            code = EXIT_UNVERIFIED
        except OracleError as exc:
            err.write(f"runtime error: {type(exc).__name__}: {exc}\n")
            code = EXIT_VIOLATED
        out.flush()
        err.flush()
        return code
    except OSError as exc:
        # every file a command names is read and written through _read and
        # _write, so an OSError here failed to write out or err: a pipe
        # closed early, a full device
        try:
            err.write(json.dumps({"severity": "error", "code": "io-error",
                                  "message": f"cannot write output: {exc}"},
                                 sort_keys=True) + "\n")
            err.flush()
        except (OSError, AttributeError):  # stderr cannot be written either
            pass
        return EXIT_USAGE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
