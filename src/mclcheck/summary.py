"""Symbolic consumption summaries and bound verification.

A method is summarized against its callees' declared contracts, never
their bodies, one scope at a time.  Per class, a scope needs its own
allocations, plus the largest headroom any single call needs (its
requirement minus what it leaves escaped), plus everything the calls
leave escaped; the subtraction is what lets memory be recycled between
calls.  That rule is stated once, for the method body
(`_Acc.requirement`); a loop at any depth hands the scope around it
(`_Acc.fold`) its own allocations and call escapes summed over the
header's range and its largest headroom maximized over it, since a
callee's temporaries die when it returns (the region model).  A loop
whose header has no range folds to zeros flagged `no-loop-range`, and
one whose closed form is past `symexpr.DEGREE_CAP` to zeros flagged
`degree-cap`: only the classes it touches are left Unverified.  Both
arms of an `if` fold straight into the enclosing scope,
flow-insensitively.  A body reads a parameter as its entry value
only while it has not assigned it (`unassigned_entry_vars`).  The
declared bounds are then discharged with entails_leq, whose Verified
holds for every nonnegative integer input that satisfies requires.  A
method is checked against its obligations (`frontend.obligations`), as
the instrumenter and the oracle check it: an absent clause declares
zero unless an object clause covers its tag, so a method without clauses
is held to zero, recursion included, and is a row where the summary
charges it.  A loop's range is its header, always: an `iteration_space`
annotation is a claim about that header, decided exactly at the header's
two ends with constraint_verdict and reported as a row of its own when it
does not hold, never a second range to sum over.  Nothing here enumerates
a grid.  Lifetime findings of the heap analysis join the same report, and
an `esc` row rests on each Violated finding of its method about objects
it counts (`object` counts them all): the summary charges only the escapes
the annotations claim, so such a row is at best Unverified.

A clause is counted as its key says, in one pass per method: `object`
counts every class of its tag, as the oracle does, and a class itself.
A `new` charges its class and `object`, and a call what the callee
bounds at each key (`MethodContract.bounds_for`), where the claims name
that key; `--mode object` claims `collapsed(obligations(method))`.

A call's whole charge (requirement, summed escapes, `add_esc` pulls) is
stated once, in `call_entries`, which the instrumenter reads too; which
components are recursive comes from `escape.analyze`.

Contract variables (`n`, `a.length`, `this.f`, `this.f.length`) and the
reading of an expression as a polynomial over them are defined once, in
`frontend.syntax` (`entry_vars`, `expr_poly`, `var_expr`); a call binds
its callee's variables by reading their caller-side expressions.  So are
a contract's clauses (`MethodContract.clauses`), in declaration order,
with their labels and their one collapse onto `object` (`collapsed`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import reduce

from . import escape
from .frontend.printer import expr_to_str, space_label
from .frontend.syntax import (
    CallStmt,
    Clause,
    ClassDecl,
    ForStmt,
    IfStmt,
    LengthRef,
    MethodDecl,
    NewStmt,
    OBJECT_KEY,
    OutArg,
    Program,
    Stmt,
    Tag,
    ThisRef,
    callee_of,
    collapsed,
    entry_vars,
    expr_poly,
    obligations,
    unassigned_entry_vars,
    var_expr,
)
from .symexpr import (
    FLAG_BAD_ARG,
    FLAG_NO_RANGE,
    LinConstraint,
    Poly,
    SYM_ZERO,
    SymExpr,
    Verdict,
    VerdictKind,
    ZERO,
    add,
    constraint_verdict,
    entails_leq,
    integer_valued,
    max_over,
    substitute,
    sum_over,
    sym_max,
    sym_sum,
)

MODE_TYPE = "type"
MODE_OBJECT = "object"


def contract_binding(stmt: NewStmt | CallStmt, callee: MethodDecl,
                     admissible: set[str] | None) -> tuple[dict[str, Poly], set[str]]:
    """Map the callee's contract variables to caller-side polynomials.

    Anything that cannot be expressed over the `admissible` names (every
    name, when None; see `expr_poly`) maps to zero and raises the
    unanalyzable-arg flag, which downgrades every clause that depends on it.
    """
    is_ctor = isinstance(stmt, NewStmt)
    used: set[str] = set()
    for c in callee.contract.clauses():
        used |= c.bound.variables()
    binding: dict[str, Poly] = {}
    flags: set[str] = set()
    by_name = dict(zip((p.name for p in callee.params if not p.is_out),
                       (a for a in stmt.args if not isinstance(a, OutArg))))
    for v in sorted(used):
        # the caller-side expression that reads v, if there is one
        if v.startswith("this."):
            if is_ctor:
                binding[v] = ZERO  # fields are zero-initialized at entry
                continue
            on_self = stmt.receiver is None or isinstance(stmt.receiver, ThisRef)
            e = var_expr(v) if on_self else None
        else:  # an in-parameter `n`, or the length `a.length` of one
            pname, length, _ = v.partition(".")
            e = by_name.get(pname)
            if length and e is not None:
                e = LengthRef(e)
        p = None if e is None else expr_poly(e, admissible)
        if p is None:
            p = ZERO
            flags.add(FLAG_BAD_ARG)
        binding[v] = p
    return binding, flags


# ------------------------------------------------------------ summarization


@dataclass
class ConsumptionSummary:
    method: str
    mem_req: dict[str, SymExpr]
    esc: dict[tuple[Tag, str], SymExpr]
    call_part: dict[str, SymExpr]  # max headroom + escapes of calls at any depth
    space_rows: list[ClauseRow]  # each iteration_space that does not hold
    claims: list[Clause]  # its obligations, collapsed in object mode


_Over = Callable[[SymExpr], SymExpr]  # a value as is, or over a loop's range


class _Acc:
    """A scope's own allocations, its calls' headroom (MR - esc) and escapes,
    keyed by clause key (a class or `object`), and its tagged escapes."""

    def __init__(self):
        self.own: dict[str, SymExpr] = {}
        self.diffs: dict[str, list[SymExpr]] = {}
        self.escs: dict[str, list[SymExpr]] = {}
        self.esc_tags: dict[tuple[Tag, str], SymExpr] = {}

    def add_own(self, key: str, e: SymExpr) -> None:
        self.own[key] = add(self.own.get(key, SYM_ZERO), e)

    def add_tag(self, tag: Tag, key: str, e: SymExpr) -> None:
        k = (tag, key)
        self.esc_tags[k] = add(self.esc_tags.get(k, SYM_ZERO), e)

    def fold(self, outer: _Acc, summed: _Over, maxed: _Over) -> None:
        """Hand a loop body's parts to the scope around it: its largest
        headroom maximized over the header's range, all else summed."""
        for key, e in self.own.items():
            outer.add_own(key, summed(e))
        for key, diffs in self.diffs.items():  # a call adds to diffs and escs alike
            outer.diffs.setdefault(key, []).append(maxed(reduce(sym_max, diffs, SYM_ZERO)))
            outer.escs.setdefault(key, []).append(summed(sym_sum(self.escs[key])))
        for (t, key), e in self.esc_tags.items():
            outer.add_tag(t, key, summed(e))

    def requirement(self) -> tuple[dict[str, SymExpr], dict[str, SymExpr]]:
        """The scope rule per key, own + max(diffs) + sum(escs), and the
        calls' part of it, in key order."""
        mem: dict[str, SymExpr] = {}
        calls: dict[str, SymExpr] = {}
        for key in sorted(set(self.own) | set(self.diffs)):
            mem[key] = self.own.get(key, SYM_ZERO)
            if key in self.diffs:
                calls[key] = add(reduce(sym_max, self.diffs[key], SYM_ZERO),
                                 sym_sum(self.escs[key]))
                mem[key] = add(mem[key], calls[key])
        return mem, calls


def call_entries(stmt: NewStmt | CallStmt, admissible: set[str] | None,
                 keys: Iterable[str]) -> list[tuple[str, SymExpr, SymExpr,
                                                    list[tuple[Tag, SymExpr]]]]:
    """The call-composition rule: what one call, or the constructor a `new`
    runs, charges a caller that counts `keys`.

    One (key, MR, escaped, pulls) entry per key of `keys` that the callee's
    contract bounds (`MethodContract.bounds_for`), in its order.  With the
    contract variables bound to the caller's values, MR is the requirement,
    escaped the sum of the escapes under every tag, and pulls the
    (destination tag, bound) of each `add_esc` pair at the call whose source
    tag the contract bounds there.  Each part carries the binding's flags.
    """
    callee = callee_of(stmt)
    if callee is None:
        return []
    binding, flags = contract_binding(stmt, callee, admissible)
    entries: dict[str, tuple[SymExpr, dict[Tag, SymExpr]]] = {}
    for c in callee.contract.bounds_for(keys):
        mr, esc_by_tag = entries.setdefault(c.key, (SYM_ZERO, {}))
        bound = substitute(c.bound, binding).with_flags(*flags)
        if c.tag is None:
            entries[c.key] = (bound, esc_by_tag)
        else:
            esc_by_tag[c.tag] = bound
    return [(key, mr.with_flags(*flags), sym_sum(esc_by_tag.values()).with_flags(*flags),
             [(dst, esc_by_tag[src]) for dst, src in stmt.add_esc if src in esc_by_tag])
            for key, (mr, esc_by_tag) in entries.items()]


class _Summarizer:
    def __init__(self, method: MethodDecl, claims: list[Clause],
                 class_map: dict[str, ClassDecl]):
        self.m = method
        cls = class_map[method.cls]
        self.entry = entry_vars(method, cls)  # what a witness names
        self.reads = unassigned_entry_vars(method, cls)  # what the body reads
        self.claims = claims
        self.keys = dict.fromkeys(c.key for c in claims)  # the only keys charged
        self.space_rows: list[ClauseRow] = []
        self.guards = 0  # the `if` arms around the statement being summarized

    # -- helpers ---------------------------------------------------------------

    def _call(self, acc: _Acc, s: NewStmt | CallStmt,
              loop_vars: tuple[str, ...]) -> None:
        for key, mr, escaped, pulls in call_entries(s, self.reads | set(loop_vars), self.keys):
            # mr - escaped: subtract one certified lower alternative of the escape
            low = min(escaped.alts, key=lambda p: sorted(p.terms))
            acc.diffs.setdefault(key, []).append(
                SymExpr(tuple(p - low for p in mr.alts), mr.flags | escaped.flags))
            acc.escs.setdefault(key, []).append(escaped)
            for dst, pulled in pulls:
                acc.add_tag(dst, key, pulled)

    # -- scopes ------------------------------------------------------------------

    def block(self, stmts: list[Stmt], acc: _Acc, context: tuple[LinConstraint, ...],
              loop_vars: tuple[str, ...]) -> _Acc:
        for s in stmts:
            self.stmt(s, acc, context, loop_vars)
        return acc

    def stmt(self, s: Stmt, acc: _Acc, context, loop_vars) -> None:
        if isinstance(s, NewStmt):
            k = SymExpr.of(1)
            if s.class_ref.is_array:
                p = expr_poly(s.length, self.reads | set(loop_vars))
                k = SYM_ZERO.with_flags(FLAG_BAD_ARG) if p is None else SymExpr.of(p)
            for key in (OBJECT_KEY, s.class_ref.key()):  # every class counts to `object`
                if key in self.keys:
                    acc.add_own(key, k)
                    if s.dest_esc is not None:
                        acc.add_tag(s.dest_esc, key, k)
        # a call, or the constructor a `new` runs, charges its contract
        if callee_of(s) is not None:
            self._call(acc, s, loop_vars)
        elif isinstance(s, IfStmt):
            # flow-insensitive: both arms fold into the enclosing scope
            self.guards += 1
            for arm in (s.then_body, s.else_body):
                self.block(arm, acc, context, loop_vars)
            self.guards -= 1
        elif isinstance(s, ForStmt):
            self.loop(s, acc, context, loop_vars)

    def loop(self, s: ForStmt, acc: _Acc, context, loop_vars) -> None:
        if s.space is not None:
            v = self._space_verdict(s, context)
            if v.kind != VerdictKind.VERIFIED:
                # the row's computed value is the header as written
                self.space_rows.append(ClauseRow(
                    self.m.qname, space_label(s), None,
                    f"{expr_to_str(s.lo)} .. {expr_to_str(s.hi)}", v))
        if s.resolved_range is None:
            # the header has no range over entry values: nothing provable inside
            inner = context
            summed = maxed = lambda e: SYM_ZERO.with_flags(FLAG_NO_RANGE)
        else:
            lo, hi = s.resolved_range
            index = Poly.var(s.var)
            inner = context + (LinConstraint.compare(lo, "<=", index),
                               LinConstraint.compare(index, "<=", hi))
            summed = lambda e: sum_over(e, s.var, lo, hi, context)
            maxed = lambda e: max_over(e, s.var, lo, hi)
        self.block(s.body, _Acc(), inner, loop_vars + (s.var,)).fold(acc, summed, maxed)

    def _space_verdict(self, s: ForStmt, context) -> Verdict:
        """Whether every index the header produces satisfies the declared
        space.  A constraint of degree at most one in the index holds on
        lo..hi when it holds at both ends, so each end is decided under the
        context and lo <= hi.  A witness names only entry values: they fix
        the enclosing indices' ranges, since a header reads only the indices
        of loops that have one.  Under an `if` a failure is only Unverified:
        the context leaves the condition out, so the point found may be one
        where the loop never runs."""
        if s.resolved_range is None:
            return Verdict.unverified("loop header has no range over entry values")
        lo, hi = s.resolved_range
        ctx = context + (LinConstraint.compare(lo, "<=", hi),)
        for c in s.resolved_space:
            if max(c.lhs.split_on(s.var), default=0) > 1:
                return Verdict.unverified(f"{c} is not affine in {s.var}")
            for end in (lo, hi):
                v = constraint_verdict(LinConstraint(c.lhs.substitute({s.var: end}), c.rel), ctx)
                if v.kind == VerdictKind.VIOLATED and self.guards:
                    return Verdict.unverified("decided without the enclosing if condition")
                if v.kind == VerdictKind.VIOLATED:
                    return Verdict.violated({k: x for k, x in v.witness.items()
                                             if k in self.entry})
                if v.kind != VerdictKind.VERIFIED:
                    return v
        return Verdict.verified("farkas")

    # -- top level ----------------------------------------------------------------

    def run(self) -> ConsumptionSummary:
        acc = self.block(self.m.body, _Acc(), self.m.contract.requires, ())
        mem, calls = acc.requirement()
        return ConsumptionSummary(
            self.m.qname, {k: e for k, e in mem.items() if not e.is_zero() or e.flags},
            {k: e for k, e in acc.esc_tags.items() if not e.is_zero() or e.flags},
            calls, self.space_rows, self.claims)


def summarize(method: MethodDecl, mode: str,
              class_map: dict[str, ClassDecl]) -> ConsumptionSummary:
    """The method's summary at its obligations, collapsed in object mode."""
    claims = obligations(method)
    return _Summarizer(method, collapsed(claims) if mode == MODE_OBJECT else claims,
                       class_map).run()


# ------------------------------------------------------------------ checking


@dataclass
class ClauseRow:
    method: str
    clause: str
    declared: str | None
    computed: str | None
    verdict: Verdict
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"method": self.method, "clause": self.clause, "declared": self.declared,
               "computed": self.computed, **self.verdict.to_json()}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass
class Report:
    rows: list[ClauseRow]
    overall: str

    def to_json(self) -> dict:
        return {"overall": self.overall,
                "clauses": [r.to_json() for r in self.rows]}


_LIFETIME_BAD = {escape.TAG_MISMATCH, escape.ESCAPES_UNANNOTATED,
                 escape.ANNOTATED_CAPTURED}


def check_method(method: MethodDecl, summary: ConsumptionSummary,
                 lifetimes: list[escape.LifetimeVerdict],
                 assume_guarantee: bool = False) -> list[ClauseRow]:
    pre = method.contract.requires
    astray = [v for v in lifetimes if v.kind in _LIFETIME_BAD]
    rows = []
    for c in summary.claims:
        charged, k = (summary.mem_req, c.key) if c.tag is None else (summary.esc, (c.tag, c.key))
        if not c.declared and k not in charged:
            continue  # an absent clause is a row only where the summary charges it
        computed = charged.get(k, SYM_ZERO)
        if computed.flags:
            v = Verdict.unverified("analysis incomplete: " + ", ".join(sorted(computed.flags)))
        elif not integer_valued(c.bound):
            v = Verdict.unverified("declared bound is not integer-valued")
        else:
            v = entails_leq(computed, c.bound, pre)
        if c.tag is not None and v.kind == VerdictKind.VERIFIED:
            rests = dict.fromkeys(f"lifetime({lv.where})" for lv in astray
                                  if c.key == OBJECT_KEY or c.key in lv.classes)
            if rests:
                v = Verdict.unverified("rests on " + ", ".join(rests))
        if not c.declared:  # a positive witness of an absent clause is a violation
            rows.append(ClauseRow(method.qname, c.label, None, str(computed), v, [
                f"undeclared consumption: objects of {c.key} are consumed but no bound is"
                " declared" if c.tag is None else f"undeclared escape: objects of {c.key}"
                f" escape under {c.tag} without a declared bound"]))
            continue
        notes = ["assume-guarantee: recursive calls use their declared contracts"] \
            if assume_guarantee else []
        if v.kind == VerdictKind.VERIFIED and computed.is_zero():
            notes.append("trivially satisfied: nothing of this class is consumed")
        rows.append(ClauseRow(method.qname, c.label, str(c.bound), str(computed), v, notes))
    # an iteration space is a claim about its loop's header, reported when
    # it does not hold, as lifetimes are
    return rows + summary.space_rows


def lifetime_rows(verdicts: list[escape.LifetimeVerdict]) -> list[ClauseRow]:
    rows = []
    for v in verdicts:
        if v.kind in _LIFETIME_BAD:
            rows.append(ClauseRow(
                v.method, f"lifetime({v.where})", None, v.kind,
                Verdict(VerdictKind.VIOLATED, reason=v.kind),
                [v.note] if v.note else []))
        elif v.kind == escape.SUPPRESSED:
            rows.append(ClauseRow(
                v.method, f"lifetime({v.where})", None, v.kind,
                Verdict.verified("suppressed"),
                ["escape check disabled by dest_local at this site"]))
    return rows


def check_program(program: Program, mode: str = MODE_TYPE) -> Report:
    class_map = program.class_map()
    methods = {m.qname: m for m in program.methods()}
    analysis = escape.analyze(program)
    recursive = set().union(*analysis.recursive)

    rows: list[ClauseRow] = []
    for qname in sorted(methods):
        m = methods[qname]
        lifetimes = analysis.lifetimes[qname]
        rows.extend(check_method(m, summarize(m, mode, class_map), lifetimes,
                                 assume_guarantee=qname in recursive))
        rows.extend(lifetime_rows(lifetimes))

    return Report(rows, VerdictKind.worst(r.verdict.kind for r in rows))
