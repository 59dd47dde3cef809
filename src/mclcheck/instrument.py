"""Source-to-source counter instrumentation.

Each obligation of a method (`frontend.obligations`, as `check` and the
oracle read them: an absent clause is zero) becomes an `ensure` over an
integer counter that the rewritten body keeps up to date: requirement
counters are bumped before every allocation, call sites charge the
callee's declared footprint through a max/sum counter pair, and escape
counters track tagged objects as they are produced or pulled in from
callees.  Everything inserted is
plain MCL, so the result pretty-prints, reparses, and runs unchanged
through the interpreter; `erase` strips the additions and returns the
original program.

Counter scoping follows the summarizer's one scope rule
(`summary._Acc`): a method has one maxCalls/sumCalls pair per key its
calls charge, updated by every call at any depth, declared in `run` just
before the first top-level statement that charges the key anywhere under
it, and flushed into the requirement counter before each return and at
the end of the body.  A max of maxes is a max and a sum of sums a sum,
so the flushed value is the summary's, and every `ensure` is read at
exit.
A method counts exactly the (tag, key) pairs of its obligations, each as
its key says: an `object` counter counts every class, so each `new`
bumps its class's counter and the object's, where the method counts
them, and a call charges each counted key what `call_entries` gives it
there.  A clause that reads a parameter the body assigns is ensured over
a snapshot of its entry value, declared beside the counters.  Each
counter name is made once per method and is unique in it: a name another
counter already holds (an array `A[]` and a class `A_arr` both write
`A_arr`) gets a numeric suffix.

What a call site charges is not restated here: `summary.call_entries` is
the one statement of the call-composition rule, shared with the static
checker, which gives the whole charge and leaves this module only the
counter statements; the copy charges a call with the values its
arguments hold at the call, so any name may be read there, and an int
argument that no name reads (`c.k`, `a[i]`) is first copied into a fresh
local, which `erase` strips as it strips the counters.  Nor is what a
method claims: its obligations come from `obligations`, in order.  Call
targets come from `frontend.callee_of` and bodies are walked with
`frontend.iter_stmts`.
A polynomial is written back as MCL from its integer form
`symexpr.integral` through `frontend.var_expr`, the inverse of the
contract-variable reading described in `frontend.syntax`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .frontend.syntax import (
    Assign,
    AugAssign,
    Binary,
    CONTRACT_STMTS,
    CallStmt,
    ClassDecl,
    EnsureStmt,
    Expr,
    ForStmt,
    IfStmt,
    IntLit,
    LocalDecl,
    MaxExpr,
    MethodDecl,
    NewStmt,
    OBJECT_KEY,
    ParenExpr,
    Program,
    ReturnStmt,
    Stmt,
    T_INT,
    Tag,
    Unary,
    VarRef,
    callee_of,
    expr_poly,
    iter_stmts,
    obligations,
    unassigned_entry_vars,
    var_expr,
)
from .summary import call_entries
from .symexpr import Poly, SymExpr, integral, substitute

KIND_MEMREQ = "MemReq"
KIND_ESC = "Esc"
KIND_MAXCALLS = "MaxCalls"
KIND_SUMCALLS = "SumCalls"
KIND_CALLDIFF = "CallDiff"
KIND_ENTRY = "Entry"
KIND_ARG = "Arg"


@dataclass(frozen=True)
class CounterInfo:
    method: str  # qualified name
    kind: str
    cls: str                 # class key; "" for an Entry or Arg snapshot
    tag: str | None = None   # Esc counters
    site: str | None = None  # CallDiff counters


@dataclass
class InstrumentedProgram:
    program: Program
    # (method qname, counter name) -> info: each method names its own counters
    counter_index: dict[tuple[str, str], CounterInfo] = field(default_factory=dict)


# ------------------------------------------------ polynomials back to syntax


def _mono_expr(mono) -> Expr:
    node: Expr | None = None
    for var, exp in mono:
        for _ in range(exp):
            factor = var_expr(var)
            node = factor if node is None else Binary("*", node, factor)
    if node is None:
        raise ValueError("a constant monomial has no variable to render")
    return node


def poly_expr(p: Poly) -> Expr:
    """Render a polynomial as surface syntax, rationals as (...)/d."""
    den, (terms,) = integral(p)
    node: Expr | None = None
    for c, mono in terms:
        mag = abs(c)
        if not mono:
            body: Expr = IntLit(mag)
        elif mag == 1:
            body = _mono_expr(mono)
        else:
            body = Binary("*", IntLit(mag), _mono_expr(mono))
        if node is None:
            node = body if c > 0 else Unary("-", body)
        else:
            node = Binary("+" if c > 0 else "-", node, body)
    if node is None:
        return IntLit(0)
    return node if den == 1 else Binary("/", ParenExpr(node), IntLit(den))


def sym_expr_node(e: SymExpr) -> Expr:
    node = poly_expr(e.alts[0])
    for p in e.alts[1:]:
        node = MaxExpr(node, poly_expr(p))
    return node


def _operand(e: Expr) -> Expr:
    # keep subtraction unambiguous: (n + 1) - 1, but plain n - 2
    if isinstance(e, (Binary, MaxExpr)):
        return ParenExpr(e)
    return e


def _suffix(key: str) -> str:
    return key[:-2] + "_arr" if key.endswith("[]") else key


# ------------------------------------------------------------- per method


class _Instrumenter:
    def __init__(self, method: MethodDecl, cls: ClassDecl,
                 index: dict[tuple[str, str], CounterInfo]):
        self.m = method
        self.index = index
        self.prefix = method.name
        self.reads = unassigned_entry_vars(method, cls)
        self.clauses = obligations(method)
        self.counted = {(c.tag, c.key) for c in self.clauses}
        self.keys = [c.key for c in self.clauses]
        self.names: set[str] = set()  # every counter name this method uses
        self.counters: dict[tuple[Tag | None, str], str] = {}  # (tag, key) -> name
        self.inits: dict[str, CounterInfo] = {}
        self.diff_total: dict[str, int] = {}
        self.diff_seen: dict[str, int] = {}
        self.pairs: dict[str, tuple[str, str]] = {}  # key -> (max, sum) counter names
        self.args_seen = 0

    # -- naming ------------------------------------------------------------

    def _fresh(self, name: str) -> str:
        """`name`, or `name` with the first suffix `_2`, `_3`, ... that no
        other counter of the method holds."""
        out, k = name, 1
        while out in self.names:
            k += 1
            out = f"{name}_{k}"
        self.names.add(out)
        return out

    def _counter(self, tag: Tag | None, key: str) -> str:
        """The one counter of the clause at (tag, key), named when first
        asked for: a memreq's when tag is None, else an esc's."""
        if (tag, key) not in self.counters:
            kind, label = (KIND_MEMREQ, "") if tag is None else (KIND_ESC, f"{tag.name}_")
            name = self._fresh(f"{self.prefix}_{kind}_{label}{_suffix(key)}")
            self.counters[tag, key] = name
            self.inits[name] = CounterInfo(self.m.qname, kind, key, tag=tag and tag.name)
        return self.counters[tag, key]

    def _record(self, name: str, kind: str, key: str, site: str | None = None) -> None:
        self.index[self.m.qname, name] = CounterInfo(self.m.qname, kind, key, site=site)

    def _diff(self, key: str, site: str) -> str:
        self.diff_seen[key] = self.diff_seen.get(key, 0) + 1
        k = self.diff_seen[key]
        name = self._fresh(f"call{k}_diff_{_suffix(key)}" if self.diff_total[key] > 1
                           else f"call_diff_{_suffix(key)}")
        self._record(name, KIND_CALLDIFF, key, site=site)
        return name

    # -- callee contract shaping --------------------------------------------

    def _charged(self, s: Stmt) -> list[str]:
        """Keys whose requirement the call (or constructor) at `s` charges,
        in entry order."""
        callee = callee_of(s)
        return [] if callee is None else list(dict.fromkeys(
            c.key for c in callee.contract.bounds_for(self.keys) if (None, c.key) in self.counted))

    def _contributing(self, s: Stmt) -> list[str]:
        """Keys charged by the calls anywhere under `s`, loop bodies included."""
        return list(dict.fromkeys(k for t in iter_stmts([s]) for k in self._charged(t)))

    def _count_diffs(self, stmts: list[Stmt]) -> None:
        for s in iter_stmts(stmts):
            for k in self._charged(s):
                self.diff_total[k] = self.diff_total.get(k, 0) + 1

    # -- statement rewriting --------------------------------------------------

    def _snapshot_args(self, stmt: NewStmt | CallStmt) -> tuple[list[Stmt], NewStmt | CallStmt]:
        """A fresh local per int argument the callee's contract reads that
        `expr_poly` cannot (a field of a local, an array element), declared
        with its value, and the call with the local in its place, for
        `call_entries`; an array argument's length stays unreadable."""
        callee = callee_of(stmt)
        if callee is None:
            return [], stmt
        used = set().union(*(c.bound.variables() for c in callee.contract.clauses()))
        decls: list[Stmt] = []
        read = copy.copy(stmt)
        read.args = list(stmt.args)
        for i, p in enumerate(callee.params):  # arguments line up with parameters
            if p.name in used and expr_poly(read.args[i], None) is None:
                self.args_seen += 1
                name = self._fresh(f"{self.prefix}_Arg{self.args_seen}_{p.name}")
                self._record(name, KIND_ARG, "")
                decls.append(LocalDecl(T_INT, name, copy.deepcopy(read.args[i])))
                read.args[i] = VarRef(name)
        return decls, read

    def _call_counters(self, stmt: NewStmt | CallStmt) -> list[Stmt]:
        out, stmt = self._snapshot_args(stmt)
        for key, mr, escaped, pulls in call_entries(stmt, None, self.keys):
            if (None, key) in self.counted:
                max_name, sum_name = self.pairs[key]
                diff = self._diff(key, stmt.site)
                out.append(LocalDecl(T_INT, diff, Binary(
                    "-", _operand(sym_expr_node(mr)), _operand(sym_expr_node(escaped)))))
                out.append(Assign(VarRef(max_name), MaxExpr(VarRef(max_name), VarRef(diff))))
                out.append(AugAssign(VarRef(sum_name), sym_expr_node(escaped)))
            out.extend(AugAssign(VarRef(self._counter(dst, key)), sym_expr_node(pulled))
                       for dst, pulled in pulls if (dst, key) in self.counted)
        return out

    def _new_counters(self, s: NewStmt) -> list[Stmt]:
        amount: Expr = s.length if s.class_ref.is_array else IntLit(1)
        out: list[Stmt] = []
        for key in (OBJECT_KEY, s.class_ref.key()):  # every class counts to `object`
            if (None, key) in self.counted:
                out.append(AugAssign(VarRef(self._counter(None, key)), copy.deepcopy(amount)))
            if s.dest_esc is not None and (s.dest_esc, key) in self.counted:
                out.append(AugAssign(VarRef(self._counter(s.dest_esc, key)),
                                     copy.deepcopy(amount)))
        return out

    def _declare_pair(self, key: str) -> list[Stmt]:
        max_name = self._fresh(f"maxCalls_{_suffix(key)}")
        sum_name = self._fresh(f"sumCalls_{_suffix(key)}")
        self._record(max_name, KIND_MAXCALLS, key)
        self._record(sum_name, KIND_SUMCALLS, key)
        self.pairs[key] = (max_name, sum_name)
        return [LocalDecl(T_INT, max_name, IntLit(0)),
                LocalDecl(T_INT, sum_name, IntLit(0))]

    def _flush(self) -> list[Stmt]:
        return [AugAssign(VarRef(self._counter(None, key)),
                          Binary("+", VarRef(mx), VarRef(sm)))
                for key, (mx, sm) in self.pairs.items()]

    def _rewrite(self, stmts: list[Stmt]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            if isinstance(s, ReturnStmt):
                out.extend(self._flush())
                out.append(s)
            elif isinstance(s, (NewStmt, CallStmt)):
                out.extend(self._call_counters(s))
                if isinstance(s, NewStmt):
                    out.extend(self._new_counters(s))
                out.append(s)
            elif isinstance(s, IfStmt):
                s.then_body = self._rewrite(s.then_body)
                s.else_body = self._rewrite(s.else_body)
                out.append(s)
            elif isinstance(s, ForStmt):
                s.body = self._rewrite(s.body)
                out.append(s)
            else:
                out.append(s)
        return out

    # -- assembly ---------------------------------------------------------------

    def run(self) -> None:
        self._count_diffs(self.m.body)

        split = 0
        while split < len(self.m.body) and isinstance(self.m.body[split], CONTRACT_STMTS):
            split += 1
        prefix, rest = self.m.body[:split], self.m.body[split:]

        # build ensures first so contract counters lead the init order; a
        # parameter the body assigns is read from its entry snapshot
        assigned = sorted({v for c in self.clauses for v in c.bound.variables()} - self.reads)
        snapshots = {v: self._fresh(f"{self.prefix}_Entry_{v.replace('.', '_')}")
                     for v in assigned}
        at_entry = {v: Poly.var(name) for v, name in snapshots.items()}
        ensures: list[Stmt] = []
        for c in self.clauses:
            counter = self._counter(c.tag, c.key)
            ensures.append(EnsureStmt(Binary("<=", VarRef(counter),
                                             sym_expr_node(substitute(c.bound, at_entry)))))

        body: list[Stmt] = []
        for s in rest:  # the one place the method's pairs are declared
            for key in self._contributing(s):
                if key not in self.pairs:
                    body.extend(self._declare_pair(key))
            body.extend(self._rewrite([s]))
        # _rewrite flushes before each return; a body that falls off the
        # end (void methods, ctors) still needs the trailing accumulation
        if self.pairs and not isinstance(body[-1], ReturnStmt):
            body = body + self._flush()
        inits = [LocalDecl(T_INT, name, IntLit(0)) for name in self.inits]
        inits += [LocalDecl(T_INT, name, var_expr(v)) for v, name in snapshots.items()]
        self.m.body = prefix + ensures + inits + body
        for name, info in self.inits.items():
            self.index[self.m.qname, name] = info
        for name in snapshots.values():
            self._record(name, KIND_ENTRY, "")


# ------------------------------------------------------------------- entry


def instrument(program: Program) -> InstrumentedProgram:
    """Rewrite a resolved program with counters and runtime assertions.

    The input is left untouched; the returned copy keeps all resolution
    results (call targets, allocation sites, loop spaces), so it can be
    interpreted or pretty-printed directly.
    """
    prog = copy.deepcopy(program)  # call-site links follow into the copy
    index: dict[tuple[str, str], CounterInfo] = {}
    class_map = prog.class_map()
    for m in prog.methods():
        _Instrumenter(m, class_map[m.cls], index).run()
    return InstrumentedProgram(prog, index)


def _strip(stmts: list[Stmt], names: set[str]) -> list[Stmt]:
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, EnsureStmt):
            continue
        if isinstance(s, LocalDecl) and s.name in names:
            continue
        if isinstance(s, (Assign, AugAssign)) and \
                isinstance(s.target, VarRef) and s.target.name in names:
            continue
        if isinstance(s, IfStmt):
            s.then_body = _strip(s.then_body, names)
            s.else_body = _strip(s.else_body, names)
        elif isinstance(s, ForStmt):
            s.body = _strip(s.body, names)
        out.append(s)
    return out


def erase(inst: InstrumentedProgram) -> Program:
    """Undo instrument: drop ensures and every statement touching one of
    its method's counters.

    Counter names are treated as a reserved namespace; a source program
    that already uses them is outside this transform's domain.
    """
    prog = copy.deepcopy(inst.program)
    names: dict[str, set[str]] = {}
    for qname, name in inst.counter_index:
        names.setdefault(qname, set()).add(name)
    for m in prog.methods():
        m.body = _strip(m.body, names.get(m.qname, set()))
    return prog
