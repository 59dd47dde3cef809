"""Reference interpreter measuring ground-truth allocation behavior.

Runs a resolved program on concrete inputs and records, for every method
activation, the peak number of simultaneously live objects of each class
among those allocated while the activation was on the stack, together with
the number of such objects still live and reachable from each escape root
(return value, receiver, bound out-parameters) at the moment the activation
returns.  Reclamation is idealized: by default unreachable objects are
collected after every statement, the smallest peaks any collector could
achieve.  A coarser mode sweeps only when a call returns, and a third mode
never reclaims; peaks from the default mode can only be lower.

Each activation records the values of its contract variables at entry (the
names are described in `frontend.syntax`), evaluated through
`frontend.var_expr`.  `run` and the grid harness bind entry arguments
through one binder, by in-parameter name.  `validate` runs each method with
an obligation (`frontend.obligations`: a declared clause, or a class or
escape it charges but does not declare under a tag that no object clause
covers, whose absent clause is zero) over the grid 0..hi of the integer
and array-length parameters of the method and of its receiver's
constructor, at most `MAX_POINTS` points in all.  It reports each
violated `(method, clause)` once, at its least witness: of the
activations that exceed the bound, the one whose entry env, as sorted
(name, value) pairs, is lexicographically least, the first in the sweep
on a tie, with the trace of its run; no other trace is kept.  Each
failed `(method, cond)` of an `ensure` is reported once, at its first
failure.  A record counts its activations (how many failed) and its runs
(how many harness runs, an entry method at one grid point, had at least
one), and records come in the order the sweep first met them.  A point
outside the entry's own `requires` (OutsidePrecondition) is skipped; a run
cut short at the step or stack limit (RunCutShort) is `inconclusive`, which
says nothing of the program.  So `validate` exits 0 when clean, 1 on any
finding, 2 when inconclusive runs are all it found, and 3 on a usage error.

Lowering.  Each method is lowered once per `Program`, on its first call, to
closures in the manner of Feeley and Lapalme's closure generation (Comput.
Lang. 1987): an expression becomes a function of the interpreter and the
current frame, and a body becomes a flat list of operations, each of which
returns the index of the next, so an `if` and a `for` are explicit jumps.
A call and the constructor a `new` runs lower alike, from the statement
(`_Body.invoke`): one operation pushes the callee's frame, the next
stores its result once it has returned.
The same per-method entry holds the sorted readers of the entry variables,
the `ensure` conditions, and the `requires` constraints and the bound of
each obligation as integer polynomials over one common denominator D,
so that a bound is exceeded iff `observed * D` exceeds the largest
numerator.  Each polynomial is compiled once, from the checker's own
integer form (`symexpr.integral`), to a function of the entry values: a
constant or an affine polynomial to a short path, any other to the exact
sum of products.  The bounds are the method's `obligations`, as `check`
and the instrumenter read them, and the constraints come from the
resolved contract (`MethodContract`), so `requires` is decided as `check`
assumes it: rationally, `/` exact rather than MCL's truncating division,
over the entry values; one that needs a variable with no entry value,
behind a null receiver or array, raises NullDereference as reading the
variable would.
The lowered code lives in a table keyed by the program's identity and
released with it, never on the syntax tree, so an instrumented copy runs
its own code.

Frames.  An MCL call pushes an `Activation` onto `Interp.stack`, and the
loop in `Interp._invoke` carries on in the callee; nothing recurses in Python,
so how deep calls may nest is `MAX_FRAMES` alone, the harness frame
included.  A push past it raises StackExhausted.

Steps.  A run may take `MAX_STEPS` steps.  A statement is charged one step
once it completes: an annotation where it stands, an `if` after its arm, a
`for` after its whole loop, and a call after its callee has returned.  A
`return` is charged nothing, and neither is any statement it leaves.  An
array allocation is also charged its length, before the array is built.

Evaluation order.  An assignment evaluates its value before its target's
base; a compound assignment reads its target, evaluates its value, then
evaluates the target's base again to store.  An index evaluates its base
before the index.  `new` allocates the instance before it evaluates the
constructor's arguments.  A call stores its result, then sweeps if the
collector runs at method exit, and is then charged its step; out-arguments
are stored in the caller once the callee's frame is popped.

Arrays account with their length; strings and integers are values and never
touch the heap.  Reclamation is incremental but exact: every object counts
its incoming references, a frame's slot as the referrer None.  An object
that a frame slot holds is rooted, so the suspects are the objects that
are new, or that lost a reference while no frame slot held them, and that
no frame slot has taken since.  A sweep searches back from each suspect,
so it reclaims exactly the objects a full mark from the roots would miss,
in the same order.
Activation serials grow from the bottom of the stack to the top, and each
object stores as `born` the serial the next activation would get, so a
frame on the stack counted an object iff its serial is below the object's
`born`.  The heap keeps objects in allocation order, so the objects born in
an exiting activation, its young objects, are the heap's tail, and an exit
works in proportion to them, as generation scavenging does (Ungar, SDE
1984).  One walk back over them recounts the frame's live counts.  When
there are any, a search back from them along incoming references records
each edge it crosses; every path from an escape root to a young object
runs through that object's ancestors, so a search forward from each root
over the recorded edges alone reaches the young objects that a full mark
from it would.  Every frame's live counts are recounted at the end of a
run; the test suite recounts them after every statement, checks every
sweep against a full mark, and every exit's escapes against a full mark
from each root.  A reclaimed object leaves the heap for good, so any later
read of it fails loudly instead of silently resurrecting garbage.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass

from .frontend import (
    Assign,
    AugAssign,
    Binary,
    BoolLit,
    CallStmt,
    Clause,
    ClassDecl,
    EnsureStmt,
    Expr,
    FieldRef,
    ForStmt,
    IfStmt,
    IndexRef,
    IntLit,
    LengthRef,
    LocalDecl,
    MaxExpr,
    MethodDecl,
    NewStmt,
    NullLit,
    OBJECT_KEY,
    OutArg,
    ParenExpr,
    PathExpr,
    Program,
    ReturnStmt,
    StrLit,
    Tag,
    ThisRef,
    TypeRef,
    Unary,
    VarRef,
    callee_of,
    entry_vars,
    expr_to_str,
    obligations,
    var_expr,
)
from .symexpr import VerdictKind, integral

GC_MODES = ("ideal", "method-exit", "none")

HARNESS = "<harness>"

# Read at run time, so a test can patch them.
MAX_STEPS = 1_000_000   # statements plus array elements in one run
MAX_POINTS = 20_000     # grid points in one validation
MAX_FRAMES = 200        # activations on the stack, the harness frame included

# The names an activation's escapes through its result and receiver go by.
_RETURN_TAG, _THIS_TAG = Tag.ret().name, Tag.this().name


class OracleError(Exception):
    """Any error raised while interpreting a program."""


class ArgumentError(OracleError):
    """An entry that does not exist, or arguments that do not fit its in-parameters."""


class RequiresViolation(OracleError):
    def __init__(self, method: str, env: dict):
        super().__init__(f"requires violated entering {method} with {env}")
        self.method = method
        self.env = env


class OutsidePrecondition(RequiresViolation, ArgumentError):
    """The entry's own `requires`, or its receiver constructor's, rejects the arguments."""

    def __str__(self):
        return f"{self.method} precondition rejects these arguments: {super().__str__()}"


class NullDereference(OracleError):
    pass


class ArrayBounds(OracleError):
    pass


class RunCutShort(OracleError):
    """A run stopped at an interpreter limit, which says nothing about the program."""


class StepBudgetExceeded(RunCutShort):
    pass


class StackExhausted(RunCutShort):
    """Calls nested deeper than `MAX_FRAMES` frames, or a method nested too
    deeply for Python to lower."""


class GridTooLarge(Exception):
    """Raised when a validation grid would run too many argument points."""


class InterpreterFault(Exception):
    """The interpreter broke one of its own invariants.

    A bug in the oracle, never a runtime error of the program it runs, so
    it deliberately is not an OracleError that validation would report.
    """


@dataclass(frozen=True)
class Ref:
    """Heap reference; a distinct type so ints never masquerade as objects."""

    oid: int


class HeapObject:
    __slots__ = ("oid", "cls", "fields", "length", "weight", "born", "incoming")

    def __init__(self, oid: int, cls: str, fields: dict, length: int | None,
                 weight: int, born: int):
        self.oid = oid
        self.cls = cls               # class name, or "C[]" for arrays
        self.fields = fields         # field name -> value; arrays: index -> value
        self.length = length
        self.weight = weight         # arrays count as their length
        self.born = born             # the next activation serial at allocation
        # referrer oid, or None for a frame's local or `this` -> reference count
        self.incoming: dict = {}


class Activation:
    __slots__ = ("serial", "method", "instance", "this", "outs", "locals",
                 "entry_env", "current", "peak", "loops", "pc", "ret")

    def __init__(self, serial: int, method: _Method | None, instance: str,
                 this: Ref | None, outs: tuple | list):
        self.serial = serial
        self.method = method         # None only for the synthetic harness frame
        self.instance = instance
        self.this = this
        self.outs = outs             # (out-parameter, store in the caller or None)
        self.locals: dict = {}
        self.entry_env: dict[str, int] = {}
        self.current: dict[str, int] = {}
        self.peak: dict[str, int] = {}
        self.loops: dict = {}        # loop slot -> its index iterator
        self.pc = 0                  # where to resume once a callee returns
        self.ret = None              # the value its `return` gave


@dataclass(frozen=True)
class AssertionFailure:
    """An instrumented `ensure` that evaluated to false at method exit."""

    method: str
    instance: str
    cond: str


@dataclass
class Observation:
    method: str
    instance: str
    entry_env: dict[str, int]
    peak: dict[str, int]                 # class key -> peak live count
    esc: dict[str, dict[str, int]]       # tag -> class key -> live escape count
    double_counted: tuple[str, ...] = () # classes reachable from several tags

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "instance": self.instance,
            "entryEnv": dict(sorted(self.entry_env.items())),
            "peakLive": dict(sorted(self.peak.items())),
            "escByTag": {
                t: dict(sorted(by.items()))
                for t, by in sorted(self.esc.items())
            },
            "doubleCounted": list(self.double_counted),
        }


@dataclass
class RunResult:
    return_value: object
    observations: list[Observation]
    assertion_failures: list[AssertionFailure]
    trace: list[tuple]

    def observation(self, qname: str) -> Observation:
        # recursion finishes innermost-first; hand back the outermost call
        matches = self.observations_for(qname)
        if not matches:
            raise KeyError(qname)
        return min(matches, key=lambda o: int(o.instance.rsplit("@", 1)[1]))

    def observations_for(self, qname: str) -> list[Observation]:
        return [o for o in self.observations if o.method == qname]


_PLAIN = {"int": int, "bool": bool, "string": str}


def _default(t: TypeRef):
    plain = None if t.is_array else _PLAIN.get(t.name)
    return None if plain is None else plain()  # 0, False or ""


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise OracleError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _checked_index(obj: HeapObject, idx) -> int:
    if obj.length is None or not 0 <= idx < obj.length:
        raise ArrayBounds(f"index {idx} outside [0, {obj.length})")
    return idx


# -- lowering --------------------------------------------------------------
#
# An expression lowers to a function of (interpreter, frame) that returns
# its value, and an assignment target to a function of (interpreter, frame,
# value) that stores it.  A body lowers to a list of operations of
# (interpreter, frame): each returns the index of the next operation, or
# _CALL once it has pushed a callee's frame and set its own frame's `pc`
# to where it resumes, or _RETURN once it has set its frame's `ret`.

_CALL = -1
_RETURN = -2

_RELATIONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": _trunc_div}


def _relation(rel: str):
    def unknown(lhs, rhs):
        raise OracleError(f"unknown comparison {rel!r}")
    return _RELATIONS.get(rel, unknown)


def _constant(value):
    return lambda it, act: value


def _lower_expr(e: Expr):
    while isinstance(e, ParenExpr):
        e = e.inner
    if isinstance(e, (IntLit, StrLit, BoolLit)):
        return _constant(e.value)
    if isinstance(e, NullLit):
        return _constant(None)
    if isinstance(e, VarRef):
        name = e.name

        def local(it, act):
            try:
                return act.locals[name]
            except KeyError:
                raise OracleError(f"undefined local {name!r}") from None
        return local
    if isinstance(e, ThisRef):
        return lambda it, act: act.this
    if isinstance(e, FieldRef):
        base, name = _lower_expr(e.base), e.field
        return lambda it, act: it._obj(base(it, act)).fields[name]
    if isinstance(e, LengthRef):
        base = _lower_expr(e.base)

        def length(it, act):
            value = base(it, act)
            if isinstance(value, str):
                return len(value)
            obj = it._obj(value)
            if obj.length is None:
                raise OracleError(f"{obj.cls} has no length")
            return obj.length
        return length
    if isinstance(e, IndexRef):
        base, index = _lower_expr(e.base), _lower_expr(e.index)

        def element(it, act):
            obj = it._obj(base(it, act))
            return obj.fields[_checked_index(obj, index(it, act))]
        return element
    if isinstance(e, Unary):
        operand = _lower_expr(e.operand)
        if e.op == "-":
            return lambda it, act: -operand(it, act)
        return lambda it, act: not operand(it, act)
    if isinstance(e, MaxExpr):
        left, right = _lower_expr(e.left), _lower_expr(e.right)
        return lambda it, act: max(left(it, act), right(it, act))
    if isinstance(e, Binary):
        left, right = _lower_expr(e.left), _lower_expr(e.right)
        if e.op == "&&":
            return lambda it, act: bool(left(it, act)) and bool(right(it, act))
        if e.op == "||":
            return lambda it, act: bool(left(it, act)) or bool(right(it, act))
        op = _ARITHMETIC.get(e.op) or _relation(e.op)
        return lambda it, act: op(left(it, act), right(it, act))
    kind = type(e).__name__

    def unknown(it, act):
        raise OracleError(f"cannot evaluate {kind}")
    return unknown


def _lower_store(target: Expr):
    if isinstance(target, VarRef):
        name = target.name
        return lambda it, act, value: it._set_local(act, name, value)
    if isinstance(target, FieldRef):
        base, name = _lower_expr(target.base), target.field
        return lambda it, act, value: it._set_field(
            it._obj(base(it, act)), name, value)
    if isinstance(target, IndexRef):
        base, index = _lower_expr(target.base), _lower_expr(target.index)

        def element(it, act, value):
            obj = it._obj(base(it, act))
            it._set_field(obj, _checked_index(obj, index(it, act)), value)
        return element
    kind = type(target).__name__

    def bad(it, act, value):
        raise OracleError(f"bad assignment target {kind}")
    return bad


def _assignment(s: LocalDecl | Assign | AugAssign):
    """The store and the value of a declaration or an assignment; a
    compound assignment's value reads its target first."""
    if isinstance(s, LocalDecl):
        value = _lower_expr(s.init) if s.init is not None \
            else _constant(_default(s.decl_type))
        return _lower_store(VarRef(s.name)), value
    value = _lower_expr(s.value)
    if isinstance(s, AugAssign):
        load, operand = _lower_expr(s.target), value

        def value(it, act):
            return load(it, act) + operand(it, act)
    return _lower_store(s.target), value


def _step(nxt: int):
    """A statement whose work is done: charge it and go on at nxt."""
    def step(it, act):
        it._post_stmt()
        return nxt
    return step


def _returned(it, act):
    return _RETURN


def _resume(store, nxt: int):
    """The rest of a call or `new` once the callee has returned its value."""
    def resume(it, act):
        if store is not None:
            store(it, act, it.ret)
        it._method_exit_sweep()
        it._post_stmt()
        return nxt
    return resume


class _Body:
    """A method body lowered to a flat list of operations."""

    def __init__(self, body: list):
        self.ops: list = []
        self.loops = 0
        self.block(body)
        self.ops.append(_returned)  # falling off the end returns nothing

    def block(self, stmts: list):
        for s in stmts:
            self.stmt(s)

    def stmt(self, s):
        nxt = len(self.ops) + 1
        if isinstance(s, (LocalDecl, Assign, AugAssign)):
            store, value = _assignment(s)

            def op(it, act):
                store(it, act, value(it, act))
                it._post_stmt()
                return nxt
        elif isinstance(s, NewStmt):
            return self.new(s)
        elif isinstance(s, CallStmt):
            return self.invoke(s, None if s.receiver is None else _lower_expr(s.receiver))
        elif isinstance(s, ReturnStmt):
            if s.value is None:
                op = _returned
            else:
                value = _lower_expr(s.value)

                def op(it, act):
                    act.ret = value(it, act)
                    return _RETURN
        elif isinstance(s, IfStmt):
            return self.branch(s)
        elif isinstance(s, ForStmt):
            return self.loop(s)
        else:
            # contract and escape annotations carry no runtime behavior;
            # requires is checked at entry and ensure at exit
            op = _step(nxt)
        self.ops.append(op)

    def hole(self) -> int:
        self.ops.append(None)
        return len(self.ops) - 1

    def branch(self, s: IfStmt):
        #   k     test, to k+1 or to the else arm (or j without one)
        #   ...   then arm
        #   j     the if's step, then past the else arm
        #   ...   else arm
        #   e     the if's step
        cond = _lower_expr(s.cond)
        k = self.hole()
        self.block(s.then_body)
        j = self.hole()
        orelse = j
        if s.else_body:
            orelse = j + 1
            self.block(s.else_body)
            self.ops.append(_step(len(self.ops) + 1))
        self.ops[j] = _step(len(self.ops))
        self.ops[k] = lambda it, act: k + 1 if cond(it, act) else orelse

    def loop(self, s: ForStmt):
        #   k     evaluate the bounds, then to j
        #   ...   body
        #   j     the next index to k+1, or the for's step once they run out
        lo, hi, var = _lower_expr(s.lo), _lower_expr(s.hi), s.var
        slot = self.loops
        self.loops += 1
        k = self.hole()
        self.block(s.body)
        j = len(self.ops)

        def start(it, act):
            act.loops[slot] = iter(range(lo(it, act), hi(it, act) + 1))
            return j

        def advance(it, act):
            i = next(act.loops[slot], None)
            if i is None:
                it._post_stmt()
                return j + 1
            it._set_local(act, var, i)
            return k + 1
        self.ops[k] = start
        self.ops.append(advance)

    def new(self, s: NewStmt):
        site = s.site or ""
        if s.length is not None:
            length, key = _lower_expr(s.length), s.class_ref.key()

            def make(it, act):
                n = length(it, act)
                if n < 0:
                    raise ArrayBounds(f"negative array length {n}")
                it._charge(n)  # before building the elements
                return it._alloc(key, n, site, dict.fromkeys(range(n)), n)
        else:
            cls = s.class_ref.name

            def make(it, act):
                return it._instance(cls, site)
        if callee_of(s) is not None:
            return self.invoke(s, make)
        store, nxt = _lower_store(s.target), len(self.ops) + 1

        def op(it, act):
            store(it, act, make(it, act))
            it._post_stmt()
            return nxt
        self.ops.append(op)

    def invoke(self, s: NewStmt | CallStmt, this):
        """A call, or the constructor a `new` runs: push the callee's frame
        on the receiver `this` gives (the caller's own when None), then
        store the callee's result."""
        k = len(self.ops)
        callee = callee_of(s)
        args, outs = [], []
        for param, arg in zip(callee.params, s.args):
            if isinstance(arg, OutArg):
                outs.append((param.name, None if arg.target is None
                             else _lower_store(arg.target)))
                args.append(_constant(_default(param.decl_type)))
            else:
                args.append(_lower_expr(arg))

        def push(it, act):
            if this is None:
                receiver = act.this
            else:
                receiver = this(it, act)
                if receiver is None:
                    raise NullDereference(f"call to {callee.name} on null")
            values = [a(it, act) for a in args]
            act.pc = k + 1
            it._push(callee, receiver, values, outs)
            return _CALL
        self.ops.append(push)
        self.ops.append(_resume(
            _lower_store(s.target) if s.target is not None else None, k + 2))


def _compiled(terms: list):
    """An integer polynomial, as `integral` gives its terms, compiled to a
    function of an env; the function raises KeyError when env lacks one of
    the polynomial's variables."""
    if all(not mono for _, mono in terms):
        value = sum(c for c, _ in terms)
        return lambda env: value
    if all(len(mono) < 2 and all(e == 1 for _, e in mono) for _, mono in terms):
        const = sum(c for c, mono in terms if not mono)
        linear = [(c, mono[0][0]) for c, mono in terms if mono]

        def affine(env):
            total = const
            for c, v in linear:
                total += c * env[v]
            return total
        return affine
    return lambda env: sum(c * math.prod(env[v] ** e for v, e in mono)
                           for c, mono in terms)


class _Bound:
    """An obligation, its bound over one common denominator: a count
    exceeds the bound iff count * den exceeds the largest of the numerators,
    one per alternative of the bound's max."""

    def __init__(self, clause: Clause):
        self.clause = clause.label
        # the escape tag it counts; None for a peak
        self.tag = None if clause.tag is None else clause.tag.name
        self.key = clause.key
        self.bound = clause.bound
        self.den, terms = integral(*clause.bound.alts)
        self.numerators = [_compiled(t) for t in terms]
        self.variables = clause.bound.variables()

    def top(self, env: dict[str, int]) -> int:
        return max(numerator(env) for numerator in self.numerators)


class _Method:
    """One method lowered: its body, and what each activation checks on
    entry and measures on exit."""

    def __init__(self, decl: MethodDecl, cls: ClassDecl):
        self.qname = decl.qname
        self.is_ctor = decl.is_ctor
        self.params = [p.name for p in decl.params]
        self.returns = decl.return_type.key() != "void"
        self.readers = [(name, _lower_expr(var_expr(name)))
                        for name in sorted(entry_vars(decl, cls))]
        contract = decl.contract
        # `lhs REL 0` as the resolver read it, `/` exact, over den > 0
        self.requires = [(_RELATIONS[c.rel], _compiled(integral(c.lhs)[1][0]))
                         for c in contract.requires]
        self.ensures = [(_lower_expr(s.cond), expr_to_str(s.cond))
                        for s in decl.body if isinstance(s, EnsureStmt)]
        self.bindings = [(tag.name, path)
                         for tag, path in contract.bindings.items()]
        self.bounds = [_Bound(c) for c in obligations(decl)]
        self.code = _Body(decl.body).ops


class _Table:
    """The lowered code of one program, a method on its first call."""

    def __init__(self, program: Program):
        self.classes = program.class_map()
        self.decls = {m.qname: m for m in program.methods()}
        self.defaults = {c.name: {f.name: _default(f.decl_type) for f in c.fields}
                         for c in program.classes}
        self.lowered: dict[str, _Method] = {}

    def method(self, decl: MethodDecl) -> _Method:
        m = self.lowered.get(decl.qname)
        if m is None:
            try:
                m = _Method(decl, self.classes[decl.cls])
            except RecursionError:
                raise StackExhausted(
                    f"{decl.qname} nests too deeply to lower") from None
            self.lowered[decl.qname] = m
        return m


_TABLES: dict[int, _Table] = {}   # id of a live Program -> its lowered code


def _table(program: Program) -> _Table:
    table = _TABLES.get(id(program))
    if table is None:
        table = _TABLES[id(program)] = _Table(program)
        weakref.finalize(program, _TABLES.pop, id(program), None)
    return table


def _drift(act: Activation, total: dict[str, int]) -> str | None:
    """The fault when a frame's live counters disagree with a recount."""
    have = {k: v for k, v in act.current.items() if v}
    want = {k: v for k, v in total.items() if v}
    return None if have == want else \
        f"live-count drift in {act.instance}: {have} != {want}"


class Interp:
    """One program run; heap, stack, and measurements live here."""

    def __init__(self, program: Program, gc: str = "ideal"):
        if gc not in GC_MODES:
            raise ValueError(f"unknown gc mode {gc!r}")
        if not program.resolved:
            raise ValueError("interpretation requires a resolved program")
        self.gc = gc
        self.sweeps_each_stmt = gc == "ideal"
        self.table = _table(program)
        self.heap: dict[int, HeapObject] = {}
        self.suspects: set[int] = set()  # new or dropped since the last sweep
        self.stack: list[Activation] = []
        self.trace: list[tuple] = []
        self.observations: list[Observation] = []
        self.failures: list[AssertionFailure] = []
        self.steps = 0
        self.ret = None                  # the value the last finished call gave
        self._next_oid = 1
        self._next_serial = 1

    # -- frames ------------------------------------------------------------

    def push_harness(self) -> Activation:
        act = Activation(0, None, f"{HARNESS}@0", None, ())
        self.stack.append(act)
        return act

    def _push(self, method: MethodDecl, this: Ref | None, values: list,
              outs=()) -> Activation:
        if len(self.stack) >= MAX_FRAMES:
            raise StackExhausted(
                f"calls nest deeper than the interpreter's {MAX_FRAMES} frames")
        m = self.table.method(method)
        serial = self._next_serial
        self._next_serial += 1
        act = Activation(serial, m, f"{m.qname}@{serial}", this, outs)
        if isinstance(this, Ref):
            self._link(None, this)
        for name, v in zip(m.params, values):
            self._set_local(act, name, v)
        self.stack.append(act)
        # the contract variables' values; one behind a null receiver or a
        # null array has none, and so does one that an ill-typed argument
        # left without an integer
        env = act.entry_env
        for name, read in m.readers:
            try:
                val = read(self, act)
            except NullDereference:
                continue
            if isinstance(val, int) and not isinstance(val, bool):
                env[name] = val
        self.trace.append(("call", m.qname, act.instance))
        for rel, lhs in m.requires:
            try:
                holds = rel(lhs(env), 0)
            except KeyError:  # a variable behind a null reference
                raise NullDereference("null dereference") from None
            if not holds:  # the arguments' fault when only the harness lies below
                raise (OutsidePrecondition if len(self.stack) == 2
                       else RequiresViolation)(m.qname, dict(env))
        return act

    def _pop(self, act: Activation):
        """Drop the top frame and the references its slots held."""
        for v in act.locals.values():
            if isinstance(v, Ref):
                self._unlink(None, v)
        if isinstance(act.this, Ref):
            self._unlink(None, act.this)
        self.stack.pop()

    def _invoke(self, method: MethodDecl, this: Ref | None, values: list,
                outs: list):
        """Run one call from the harness frame to its end; return its value.
        The calls it makes push their frames and run in this loop."""
        depth = len(self.stack)
        stack = self.stack
        act = self._push(method, this, values, outs)
        code, pc = act.method.code, 0
        while True:
            while pc >= 0:
                pc = code[pc](self, act)
            if pc == _CALL:
                act = stack[-1]
                pc = 0
            else:
                value = self._exit(act)
                if len(stack) == depth:
                    return value
                self.ret = value
                act = stack[-1]
                pc = act.pc
            code = act.method.code

    def _exit(self, act: Activation):
        """Measure the top frame, pop it and store its out-arguments in the
        caller.  The call's value is what it returned, or a constructor's
        instance."""
        self._finish(act, act.ret)
        outs = [(act.locals[name], store) for name, store in act.outs]
        self._pop(act)
        caller = self.stack[-1]
        for value, store in outs:
            if store is not None:
                store(self, caller, value)
        return act.this if act.method.is_ctor else act.ret

    # -- heap --------------------------------------------------------------

    def _obj(self, ref) -> HeapObject:
        if not isinstance(ref, Ref):
            raise NullDereference("null dereference")
        obj = self.heap.get(ref.oid)
        if obj is None:
            raise InterpreterFault(f"read of reclaimed object {ref.oid}")
        return obj

    def _instance(self, cls_name: str, site: str) -> Ref:
        """A fresh object of a class, fields at their defaults."""
        return self._alloc(cls_name, 1, site, dict(self.table.defaults[cls_name]), None)

    def _alloc(self, cls_key: str, weight: int, site: str,
               fields_: dict, length: int | None) -> Ref:
        oid = self._next_oid
        self._next_oid += 1
        self.heap[oid] = HeapObject(oid, cls_key, fields_, length, weight,
                                    self._next_serial)
        for v in fields_.values():
            if isinstance(v, Ref):
                self._link(oid, v)
        if self.gc != "none":
            self.suspects.add(oid)
        for act in self.stack:
            current, peak = act.current, act.peak
            cur = current.get(cls_key, 0) + weight
            current[cls_key] = cur
            if cur > peak.get(cls_key, 0):
                peak[cls_key] = cur
            cur = current.get(OBJECT_KEY, 0) + weight
            current[OBJECT_KEY] = cur
            if cur > peak.get(OBJECT_KEY, 0):
                peak[OBJECT_KEY] = cur
        self.trace.append(("alloc", oid, cls_key, weight, site,
                           self.stack[-1].instance))
        return Ref(oid)

    # Every write of a reference goes through _set_local or _set_field, so
    # each object's `incoming` counts exactly the slots that hold it.  An
    # object that a frame slot holds is rooted, so it is no suspect: a slot
    # that takes it clears it, and only a reference dropped while no frame
    # slot holds it makes it one.

    def _link(self, src, ref: Ref):
        inc = self.heap[ref.oid].incoming
        inc[src] = inc.get(src, 0) + 1
        if src is None:
            self.suspects.discard(ref.oid)

    def _unlink(self, src, ref: Ref):
        inc = self.heap[ref.oid].incoming
        if inc[src] == 1:
            del inc[src]
        else:
            inc[src] -= 1
        if None not in inc and self.gc != "none":
            self.suspects.add(ref.oid)

    def _set_local(self, act: Activation, name: str, value):
        old = act.locals.get(name)
        if isinstance(old, Ref):
            self._unlink(None, old)
        act.locals[name] = value
        if isinstance(value, Ref):
            self._link(None, value)

    def _set_field(self, obj: HeapObject, key, value):
        old = obj.fields.get(key)
        if isinstance(old, Ref):
            self._unlink(obj.oid, old)
        obj.fields[key] = value
        if isinstance(value, Ref):
            self._link(obj.oid, value)

    def _roots(self):
        for act in self.stack:
            if act.this is not None:
                yield act.this
            yield from act.locals.values()

    def _sweep(self):
        """Reclaim every unreachable object.  Only a suspect can have become
        unreachable since the last sweep: search back from each along
        incoming references for a root slot or an object already shown
        live.  A search that finds neither has visited a set closed under
        referrers that no root holds, so all of it is garbage; dropping
        its fields makes its children suspects in turn."""
        if not self.suspects:
            return
        live: set[int] = set()
        dead: set[int] = set()
        while self.suspects:
            oid = self.suspects.pop()
            if oid in live or oid in dead:
                continue
            seen = {oid}
            work = [oid]
            rooted = False
            while work and not rooted:
                for src in self.heap[work.pop()].incoming:
                    if src is None or src in live:
                        rooted = True
                        break
                    if src not in seen:
                        seen.add(src)
                        work.append(src)
            if rooted:
                live.add(oid)
                continue
            dead |= seen
            for d in seen:
                for v in self.heap[d].fields.values():
                    if isinstance(v, Ref):
                        self._unlink(d, v)
        for oid in sorted(dead):
            obj = self.heap.pop(oid)
            for act in self.stack:
                if act.serial >= obj.born:
                    break
                for key in (obj.cls, OBJECT_KEY):
                    act.current[key] -= obj.weight
                    if act.current[key] < 0:
                        raise InterpreterFault(
                            f"negative live count for {key} in {act.instance}")
            self.trace.append(("reclaim", oid))

    def _assert_accounting(self, acts=None):
        # the incremental counters of `acts` (frames on the stack, bottom
        # first; by default every frame) must agree with a from-scratch
        # recount.  A frame counts the objects born above its serial, and
        # the heap keeps objects in allocation order, along which `born`
        # never decreases; so a walk back from the newest object has
        # counted everything of a frame at the first object born at or
        # below its serial, and the frames are recounted top down.
        acts = self.stack if acts is None else acts
        objs = reversed(self.heap.values())
        obj = next(objs, None)
        total: dict[str, int] = {}
        drift = None
        for act in reversed(acts):
            while obj is not None and obj.born > act.serial:
                for key in (obj.cls, OBJECT_KEY):
                    total[key] = total.get(key, 0) + obj.weight
                obj = next(objs, None)
            drift = _drift(act, total) or drift  # the lowest drifting frame is named
        if drift:
            raise InterpreterFault(drift)

    def _charge(self, steps: int):
        self.steps += steps
        if self.steps > MAX_STEPS:
            raise StepBudgetExceeded(f"exceeded {MAX_STEPS} steps")

    def _post_stmt(self):
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise StepBudgetExceeded(f"exceeded {MAX_STEPS} steps")
        if self.sweeps_each_stmt and self.suspects:
            self._sweep()

    def _method_exit_sweep(self):
        # runs once per return, but only after the caller has rooted the
        # returned or constructed object; a real collector sees that value
        # in a register, not garbage
        if self.gc == "method-exit":
            self._sweep()
            self._assert_accounting()

    def _finish(self, act: Activation, ret):
        """Exit protocol: ensures, the recount of the frame's live counters,
        then escape measurement, before any sweep."""
        m = act.method
        for cond, text in m.ensures:
            if not cond(self, act):
                self.failures.append(AssertionFailure(m.qname, act.instance, text))
        roots: dict[str, object] = {}
        if m.returns and ret is not None:
            roots[_RETURN_TAG] = ret
        if act.this is not None:
            roots[_THIS_TAG] = act.this
        for tag, path in m.bindings:
            val = self._follow(act, ret, path)
            if val is not None:
                roots[tag] = val
        # the objects born in the activation are the heap's tail, as in
        # _assert_accounting: one walk back over them recounts the frame
        total: dict[str, int] = {}
        young: set[int] = set()
        serial = act.serial
        for obj in reversed(self.heap.values()):
            if obj.born <= serial:
                break
            young.add(obj.oid)
            cls, weight = obj.cls, obj.weight
            total[cls] = total.get(cls, 0) + weight
            total[OBJECT_KEY] = total.get(OBJECT_KEY, 0) + weight
        if act.current != total:  # _drift tells a zero count from a drift
            drift = _drift(act, total)
            if drift:
                raise InterpreterFault(drift)
        esc, doubled = self._escapes(young, roots) if young else ({}, ())
        self.observations.append(Observation(
            m.qname, act.instance, act.entry_env,
            {k: v for k, v in act.peak.items() if v},
            esc, tuple(sorted(doubled))))
        self.trace.append(("ret", m.qname, act.instance))

    def _escapes(self, young: set[int], roots: dict) -> tuple[dict, set]:
        """The weights by class of the young objects that each root reaches,
        by tag, and the classes of those that several roots reach.  Every
        path from a root to a young object runs through ancestors of that
        object, so a search back from the young objects along `incoming`
        that records each edge it crosses records every such path; a search
        forward from each root over the recorded edges alone then reaches
        exactly the young objects that a full mark from it would."""
        heap = self.heap
        kids: dict[int, list[int]] = {}  # referrer -> what it holds, of the searched
        seen = set(young)
        work = list(young)
        while work:
            oid = work.pop()
            for src in heap[oid].incoming:
                if src is not None:  # a frame slot is no root of an escape
                    kids.setdefault(src, []).append(oid)
                    if src not in seen:
                        seen.add(src)
                        work.append(src)
        esc: dict[str, dict[str, int]] = {}
        counted: list[set[int]] = []
        for tag_name, root in roots.items():
            if not isinstance(root, Ref) or root.oid not in seen:
                continue  # it reaches no young object
            reached = {root.oid}
            work = [root.oid]
            while work:
                for kid in kids.get(work.pop(), ()):
                    if kid not in reached:
                        reached.add(kid)
                        work.append(kid)
            mine = reached & young
            by_cls: dict[str, int] = {}
            for oid in mine:
                obj = heap[oid]
                if obj.weight:  # zero-length arrays contribute nothing
                    by_cls[obj.cls] = by_cls.get(obj.cls, 0) + obj.weight
            counted.append(mine)
            if by_cls:
                by_cls[OBJECT_KEY] = sum(by_cls.values())
                esc[tag_name] = by_cls
        doubled: set[str] = set()
        if len(counted) > 1:
            for a, b in itertools.combinations(counted, 2):
                for oid in a & b:
                    doubled.add(heap[oid].cls)
        return esc, doubled

    def _follow(self, act: Activation, ret, path: PathExpr):
        if path.root == "this":
            val = act.this
        elif path.root == "return":
            val = ret
        else:
            val = act.locals.get(path.root)
        for fname in path.fields:
            if val is None:
                return None
            val = self._obj(val).fields.get(fname)
        return val

    def result(self, return_value) -> RunResult:
        return RunResult(return_value, self.observations, self.failures,
                         self.trace)


# -- single entry run ----------------------------------------------------


def _value(interp: Interp, name: str, t: TypeRef, raw):
    """A plain Python value as a runtime value of type t.  A list becomes an
    array allocated on behalf of the harness frame, its null elements the
    element type's default; a reference type also takes null."""
    if t.is_array and isinstance(raw, list):
        elem = t.element()
        elems = {i: _default(elem) if x is None
                 else _value(interp, f"{name}[{i}]", elem, x)
                 for i, x in enumerate(raw)}
        return interp._alloc(t.key(), len(raw), HARNESS, elems, len(raw))
    if t.is_array or t.name not in _PLAIN:
        if raw is None:
            return None
    elif type(raw) is _PLAIN[t.name]:
        return raw
    raise ArgumentError(f"argument {name} must be {t.key()}")


def _bind_args(interp: Interp, params, given: dict) -> tuple[list, list]:
    """Argument values and out-parameter slots for a parameter list.

    `given` holds a plain value for every in-parameter by name; arrays are
    allocated in parameter order.  Out-parameters start at their default.
    """
    values = []
    outs = []
    for p in params:
        if p.is_out:
            outs.append((p.name, None))
            values.append(_default(p.decl_type))
        else:
            values.append(_value(interp, p.name, p.decl_type, given[p.name]))
    return values, outs


def _drive(program: Program, qname: str, gc: str, bind) -> RunResult:
    """Run one entry method from a harness frame and measure the run.

    `bind(interp, method, harness)` turns the caller's input into the
    receiver, argument values and out-parameter slots; it runs inside the
    harness frame, so whatever it allocates is charged there.  A
    constructor entry then gets a fresh instance as its receiver and
    returns it.
    """
    interp = Interp(program, gc=gc)
    method = interp.table.decls.get(qname)
    if method is None:
        raise ArgumentError(f"no such method: {qname}")
    harness = interp.push_harness()
    this, values, outs = bind(interp, method, harness)
    if method.is_ctor:
        this = interp._instance(method.cls, HARNESS)
    ret = interp._invoke(method, this, values, outs)
    interp._set_local(harness, "<result>", ret)
    if interp.gc != "none":
        interp._sweep()
    interp._assert_accounting()
    return interp.result(ret)


def run(program: Program, entry: str, args=(), gc: str = "ideal") -> RunResult:
    """Run one method on concrete arguments and measure every activation.

    `entry` is a qualified name.  Constructors allocate and return the new
    instance; other methods run with a null receiver, so entries that read
    receiver state need the grid harness instead.
    """
    def bind(interp: Interp, method: MethodDecl, harness: Activation):
        names = [p.name for p in method.params if not p.is_out]
        if len(args) != len(names):
            raise ArgumentError(
                f"{entry} takes {len(names)} argument(s), one per"
                f" in-parameter ({', '.join(names) or 'none'}); got {len(args)}")
        values, outs = _bind_args(interp, method.params, dict(zip(names, args)))
        return None, values, outs

    return _drive(program, entry, gc, bind)


# -- grid harness ----------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    name: str            # "n", "names.length", "ctor.size", ...
    values: range | tuple  # a range, so a grid is counted before it is built


@dataclass
class HarnessPlan:
    method: str
    knobs: list[Knob]
    skip_reason: str | None = None

    def points(self):
        names = [k.name for k in self.knobs]
        for combo in itertools.product(*(k.values for k in self.knobs)):
            yield dict(zip(names, combo))

    def point_count(self) -> int:
        # len() of a range longer than sys.maxsize overflows; its stop does not
        return math.prod(k.values.stop if isinstance(k.values, range)
                         else len(k.values) for k in self.knobs)


def _param_knobs(params, prefix: str, hi: int):
    """Knobs for a parameter list, or a reason it cannot be synthesized."""
    span = range(hi + 1)
    knobs = []
    for p in params:
        if p.is_out:
            continue
        t = p.decl_type
        if t.is_array:
            knobs.append(Knob(f"{prefix}{p.name}.length", span))
        elif t.name == "int":
            knobs.append(Knob(f"{prefix}{p.name}", span))
        elif t.name == "bool":
            knobs.append(Knob(f"{prefix}{p.name}", (False, True)))
        elif t.name == "string":
            pass  # fixed text, no knob
        else:
            return None, f"cannot synthesize a {t.key()} argument"
    return knobs, None


def harness_plan(program: Program, qname: str, hi: int = 8) -> HarnessPlan:
    method = program.method(qname)
    ctor = program.class_map()[method.cls].ctor()
    knobs: list[Knob] = []
    if not method.is_ctor and ctor is not None:
        ctor_knobs, reason = _param_knobs(ctor.params, "ctor.", hi)
        if reason:
            return HarnessPlan(qname, [], reason)
        knobs.extend(ctor_knobs)
    arg_knobs, reason = _param_knobs(method.params, "", hi)
    if reason:
        return HarnessPlan(qname, [], reason)
    knobs.extend(arg_knobs)
    return HarnessPlan(qname, knobs)


def _point_values(params, prefix: str, point: dict) -> dict:
    """The in-parameter values a grid point stands for: knobs as they are,
    arrays of the knob's length, and a fixed text for each string."""
    given = {}
    for p in params:
        if p.is_out:
            continue
        t = p.decl_type
        if t.is_array:
            n = point[f"{prefix}{p.name}.length"]
            given[p.name] = [f"s{i}" for i in range(n)] if t.name == "string" \
                else [None] * n  # every other element starts at its default
        elif t.name == "string":
            given[p.name] = "x"
        else:
            given[p.name] = point[f"{prefix}{p.name}"]
    return given


def run_point(program: Program, qname: str, point: dict,
              gc: str = "ideal") -> RunResult:
    """One harness-driven run: build a receiver if needed, then the call.

    Raises OutsidePrecondition when the point itself is outside the
    method's (or the receiver constructor's) precondition.
    """
    def bind(interp: Interp, method: MethodDecl, harness: Activation):
        this = None
        if not method.is_ctor:
            this = interp._instance(method.cls, HARNESS)
            interp._set_local(harness, "<receiver>", this)
            ctor = interp.table.classes[method.cls].ctor()
            if ctor is not None:
                values, outs = _bind_args(
                    interp, ctor.params, _point_values(ctor.params, "ctor.", point))
                interp._invoke(ctor, this, values, outs)
                interp._method_exit_sweep()
        values, outs = _bind_args(
            interp, method.params, _point_values(method.params, "", point))
        return this, values, outs

    return _drive(program, qname, gc, bind)


# -- grid validation -------------------------------------------------------


@dataclass
class BoundViolation:
    """A declared bound that some activations exceeded: its least witness
    and how often it was exceeded."""

    entry: str
    point: dict
    method: str
    instance: str
    clause: str
    declared: str
    declared_value: int  # the bound at the entry env, rounded down
    observed: int
    entry_env: dict[str, int]
    trace: list[tuple]
    activations: int = 0         # violating activations
    runs: int = 0                # harness runs with at least one

    def to_json(self) -> dict:
        return {
            "entry": self.entry,
            "point": {k: v for k, v in sorted(self.point.items())},
            "method": self.method,
            "instance": self.instance,
            "clause": self.clause,
            "declared": self.declared,
            "declaredValue": self.declared_value,
            "observed": self.observed,
            "entryEnv": dict(sorted(self.entry_env.items())),
            "trace": [list(ev) for ev in self.trace],
            "activations": self.activations,
            "runs": self.runs,
        }


@dataclass
class EnsureFailure:
    """An `ensure` that failed: where it first failed in the sweep, and how
    often it failed.  Unpacks as (entry, point, failure), as the report's
    other lists do."""

    entry: str
    point: dict
    failure: AssertionFailure
    activations: int = 0
    runs: int = 0

    def __iter__(self):
        return iter((self.entry, self.point, self.failure))

    def to_json(self) -> dict:
        return {"entry": self.entry, "point": dict(sorted(self.point.items())),
                "method": self.failure.method, "instance": self.failure.instance,
                "cond": self.failure.cond, "activations": self.activations,
                "runs": self.runs}


@dataclass
class OracleReport:
    violations: list[BoundViolation]     # one per violated (method, clause)
    ensure_failures: list[EnsureFailure] # one per failed (method, cond)
    requires_aborts: list[tuple]   # (entry, point, callee qname)
    runtime_errors: list[tuple]    # (entry, point, message)
    inconclusive: list[tuple]      # (entry, point, message) of runs cut short
    runs: int
    points_skipped: int
    methods_skipped: list[tuple]   # (qname, reason)

    @property
    def overall(self) -> str:
        if self.violations or self.ensure_failures or self.requires_aborts or self.runtime_errors:
            return VerdictKind.VIOLATED
        return VerdictKind.UNVERIFIED if self.inconclusive else VerdictKind.VERIFIED

    @property
    def clean(self) -> bool:
        return self.overall == VerdictKind.VERIFIED

    def to_json(self) -> dict:
        def stopped(runs):
            return [{"entry": e, "point": dict(sorted(p.items())), "error": msg}
                    for e, p, msg in runs]

        return {
            "violations": [v.to_json() for v in self.violations],
            "ensureFailures": [f.to_json() for f in self.ensure_failures],
            "requiresAborts": [
                {"entry": e, "point": dict(sorted(p.items())), "callee": c}
                for e, p, c in self.requires_aborts
            ],
            "runtimeErrors": stopped(self.runtime_errors),
            "inconclusive": stopped(self.inconclusive),
            "runs": self.runs,
            "pointsSkipped": self.points_skipped,
            "methodsSkipped": [list(t) for t in self.methods_skipped],
        }


def _fold_violations(result: RunResult, table: _Table, entry: str, point: dict,
                     groups: dict):
    """Count each bound an activation of the run exceeds into its (method,
    clause) group, which keeps the activation with the least sorted entry
    env, the first on a tie."""
    hit = set()
    for obs in result.observations:
        bounds = table.lowered[obs.method].bounds
        if not bounds:
            continue
        env = obs.entry_env
        for b in bounds:
            if not b.variables.issubset(env):
                continue
            observed = obs.peak.get(b.key, 0) if b.tag is None \
                else obs.esc.get(b.tag, {}).get(b.key, 0)
            top = b.top(env)
            if observed * b.den <= top:
                continue
            key = (obs.method, b.clause)
            group = groups.get(key)
            if group is None or sorted(env.items()) < sorted(group.entry_env.items()):
                counts = (group.activations, group.runs) if group else (0, 0)
                group = groups[key] = BoundViolation(
                    entry, point, obs.method, obs.instance, b.clause, str(b.bound),
                    top // b.den, observed, env, result.trace, *counts)
            group.activations += 1
            if key not in hit:
                hit.add(key)
                group.runs += 1


def _fold_failures(failures: list[AssertionFailure], entry: str, point: dict,
                   groups: dict):
    """Count each failed `ensure` into its (method, cond) group, which keeps
    the first failure."""
    hit = set()
    for f in failures:
        key = (f.method, f.cond)
        group = groups.setdefault(key, EnsureFailure(entry, point, f))
        group.activations += 1
        if key not in hit:
            hit.add(key)
            group.runs += 1


def validate(program: Program, hi: int = 8, gc: str = "ideal") -> OracleReport:
    """Drive every method with an obligation over the argument grid 0..hi
    and compare the measured peaks and escapes against its obligations.
    Findings are folded into one record per violated clause and one per
    failed `ensure`, in the order the sweep first meets them."""
    report = OracleReport([], [], [], [], [], 0, 0, [])
    plans = []
    total = 0
    for m in sorted(program.methods(), key=lambda m: m.qname):
        if not obligations(m):
            continue
        plan = harness_plan(program, m.qname, hi)
        if plan.skip_reason:
            report.methods_skipped.append((m.qname, plan.skip_reason))
            continue
        plans.append(plan)
        total += plan.point_count()
    if total > MAX_POINTS:
        raise GridTooLarge(f"{total} grid points exceed the {MAX_POINTS} cap")
    table = _table(program)
    violations: dict[tuple, BoundViolation] = {}
    failures: dict[tuple, EnsureFailure] = {}
    for plan in plans:
        for point in plan.points():
            try:
                result = run_point(program, plan.method, point, gc=gc)
            except OutsidePrecondition:
                report.points_skipped += 1
                continue
            except RequiresViolation as rv:
                report.requires_aborts.append((plan.method, point, rv.method))
                continue
            except RunCutShort as err:
                report.inconclusive.append((plan.method, point, str(err)))
                continue
            except OracleError as err:
                report.runtime_errors.append((plan.method, point, str(err)))
                continue
            report.runs += 1
            _fold_failures(result.assertion_failures, plan.method, point, failures)
            _fold_violations(result, table, plan.method, point, violations)
    report.violations = list(violations.values())
    report.ensure_failures = list(failures.values())
    return report
