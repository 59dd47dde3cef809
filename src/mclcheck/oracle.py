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
through one binder, by in-parameter name.  `validate` runs each contracted
method over the grid 0..hi of the integer and array-length parameters of
the method and of its receiver's constructor, at most `MAX_POINTS` points
in all.  A run may take `MAX_STEPS` steps: one per statement, plus one per
element of an allocated array, charged before the array is built.

Arrays account with their length; strings and integers are values and never
touch the heap.  Reclamation is incremental but exact: every object counts
its incoming references, and a sweep searches back from each object that
is new or lost a reference since the last sweep, so it reclaims exactly
the objects a full mark from the roots would miss, in the same order.
Activation serials grow from the bottom of the stack to the top, and each
object stores as `born` the serial the next activation would get, so a
frame on the stack counted an object iff its serial is below the object's
`born`.  An activation's live counts are recomputed from the heap when it
exits, and every frame's at the end of a run; the test suite recomputes
them after every statement and checks every sweep against a full mark.
Reclaimed object ids are poisoned so that any later read fails loudly
instead of silently resurrecting garbage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .frontend import (
    Assign,
    AugAssign,
    Binary,
    BoolLit,
    CallStmt,
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
    OutArg,
    ParenExpr,
    PathExpr,
    Program,
    RequiresStmt,
    ReturnStmt,
    StrLit,
    ThisRef,
    TypeRef,
    Unary,
    VarRef,
    callee_of,
    entry_vars,
    expr_to_str,
    var_expr,
)
from .summary import OBJECT_KEY
from .symexpr import SymExpr

GC_MODES = ("ideal", "method-exit", "none")

HARNESS = "<harness>"

# Read at run time, so a test can patch them.
MAX_STEPS = 1_000_000   # statements plus array elements in one run
MAX_POINTS = 20_000     # grid points in one validation


class OracleError(Exception):
    """Any error raised while interpreting a program."""


class RequiresViolation(OracleError):
    def __init__(self, method: str, env: dict, direct: bool):
        super().__init__(f"requires violated entering {method} with {env}")
        self.method = method
        self.env = env
        self.direct = direct  # raised by the harness-invoked activation itself


class NullDereference(OracleError):
    pass


class ArrayBounds(OracleError):
    pass


class StepBudgetExceeded(OracleError):
    pass


class StackExhausted(OracleError):
    """Calls nested deeper than the interpreter's own Python stack allows."""


class ArgumentError(OracleError):
    """Entry arguments that do not fit the method's in-parameters."""


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


@dataclass
class HeapObject:
    oid: int
    cls: str                     # class name, or "C[]" for arrays
    fields: dict                 # field name -> value; arrays: index -> value
    length: int | None
    weight: int                  # arrays count as their length
    born: int                    # the next activation serial at allocation
    # referrer oid, or None for a frame's local or `this` -> reference count
    incoming: dict = field(default_factory=dict)


@dataclass
class Activation:
    serial: int
    method: MethodDecl | None    # None only for the synthetic harness frame
    instance: str
    this: Ref | None
    locals: dict
    entry_env: dict[str, int]
    ensures: list[EnsureStmt]
    current: dict[str, int] = field(default_factory=dict)
    peak: dict[str, int] = field(default_factory=dict)


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


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class Interp:
    """One program run; heap, stack, and measurements live here."""

    def __init__(self, program: Program, gc: str = "ideal"):
        if gc not in GC_MODES:
            raise ValueError(f"unknown gc mode {gc!r}")
        if not program.resolved:
            raise ValueError("interpretation requires a resolved program")
        self.program = program
        self.gc = gc
        self.classes = program.class_map()
        self.methods = {m.qname: m for m in program.methods()}
        self.heap: dict[int, HeapObject] = {}
        self.poisoned: set[int] = set()
        self.suspects: set[int] = set()  # new or dropped since the last sweep
        self.stack: list[Activation] = []
        self.trace: list[tuple] = []
        self.observations: list[Observation] = []
        self.failures: list[AssertionFailure] = []
        self.steps = 0
        self._next_oid = 1
        self._next_serial = 1

    # -- frames ------------------------------------------------------------

    def push_harness(self) -> Activation:
        act = Activation(0, None, f"{HARNESS}@0", None, {}, {}, [])
        self.stack.append(act)
        return act

    def _push(self, method: MethodDecl, this: Ref | None,
              values: list, direct: bool) -> Activation:
        serial = self._next_serial
        self._next_serial += 1
        act = Activation(serial, method, f"{method.qname}@{serial}",
                         this, {}, {}, [])
        self._link(None, this)
        for p, v in zip(method.params, values):
            self._set_local(act, p.name, v)
        self.stack.append(act)
        act.ensures = [s for s in method.body if isinstance(s, EnsureStmt)]
        act.entry_env = self._snapshot_entry(act)
        self.trace.append(("call", method.qname, act.instance))
        self._check_requires(act, direct)
        return act

    def _pop(self, act: Activation):
        """Drop the top frame and the references its slots held."""
        for v in act.locals.values():
            self._unlink(None, v)
        self._unlink(None, act.this)
        self.stack.pop()

    def _snapshot_entry(self, act: Activation) -> dict[str, int]:
        """The contract variables' values; act must be the top frame.  A
        variable behind a null receiver or a null array has none, and so
        does one that an ill-typed argument left without an integer."""
        env: dict[str, int] = {}
        for name in sorted(entry_vars(act.method, self.classes[act.method.cls])):
            try:
                val = self._eval(var_expr(name))
            except NullDereference:
                continue
            if isinstance(val, int) and not isinstance(val, bool):
                env[name] = val
        return env

    def _check_requires(self, act: Activation, direct: bool):
        for s in act.method.body:
            if not isinstance(s, RequiresStmt):
                continue
            for c in s.constraints:
                if not self._compare(c.rel, self._eval(c.left),
                                     self._eval(c.right)):
                    raise RequiresViolation(act.method.qname,
                                            dict(act.entry_env), direct)

    # -- heap --------------------------------------------------------------

    def _obj(self, ref) -> HeapObject:
        if not isinstance(ref, Ref):
            raise NullDereference("null dereference")
        if ref.oid in self.poisoned:
            raise InterpreterFault(f"read of reclaimed object {ref.oid}")
        return self.heap[ref.oid]

    def _instance(self, cls_name: str, site: str) -> Ref:
        """A fresh object of a class, fields at their defaults."""
        fields_ = {f.name: _default(f.decl_type)
                   for f in self.classes[cls_name].fields}
        return self._alloc(cls_name, 1, site, fields_, None)

    def _alloc(self, cls_key: str, weight: int, site: str,
               fields_: dict, length: int | None) -> Ref:
        oid = self._next_oid
        self._next_oid += 1
        self.heap[oid] = HeapObject(oid, cls_key, fields_, length, weight,
                                    self._next_serial)
        for v in fields_.values():
            self._link(oid, v)
        if self.gc != "none":
            self.suspects.add(oid)
        for act in self.stack:
            for key in (cls_key, OBJECT_KEY):
                cur = act.current.get(key, 0) + weight
                act.current[key] = cur
                if cur > act.peak.get(key, 0):
                    act.peak[key] = cur
        self.trace.append(("alloc", oid, cls_key, weight, site,
                           self.stack[-1].instance))
        return Ref(oid)

    # Every write of a reference goes through _set_local or _set_field, so
    # each object's `incoming` counts exactly the slots that hold it.

    def _link(self, src, value):
        if isinstance(value, Ref):
            inc = self.heap[value.oid].incoming
            inc[src] = inc.get(src, 0) + 1

    def _unlink(self, src, value):
        if isinstance(value, Ref):
            inc = self.heap[value.oid].incoming
            if inc[src] == 1:
                del inc[src]
            else:
                inc[src] -= 1
            if self.gc != "none":
                self.suspects.add(value.oid)

    def _set_local(self, act: Activation, name: str, value):
        self._unlink(None, act.locals.get(name))
        act.locals[name] = value
        self._link(None, value)

    def _set_field(self, obj: HeapObject, key, value):
        self._unlink(obj.oid, obj.fields.get(key))
        obj.fields[key] = value
        self._link(obj.oid, value)

    def _reach(self, roots) -> set[int]:
        seen: set[int] = set()
        work = [v for v in roots if isinstance(v, Ref)]
        while work:
            oid = work.pop().oid
            if oid in seen:
                continue
            seen.add(oid)
            for v in self.heap[oid].fields.values():
                if isinstance(v, Ref) and v.oid not in seen:
                    work.append(v)
        return seen

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
            self.poisoned.add(oid)
            self.trace.append(("reclaim", oid))

    def _assert_accounting(self, acts=None):
        # the incremental counters of `acts` (frames on the stack, bottom
        # first; by default every frame) must agree with a from-scratch recount
        acts = self.stack if acts is None else acts
        expected: dict[int, dict[str, int]] = {a.serial: {} for a in acts}
        for obj in self.heap.values():
            for act in acts:
                if act.serial >= obj.born:
                    break
                acc = expected[act.serial]
                for key in (obj.cls, OBJECT_KEY):
                    acc[key] = acc.get(key, 0) + obj.weight
        for act in acts:
            have = {k: v for k, v in act.current.items() if v}
            want = {k: v for k, v in expected[act.serial].items() if v}
            if have != want:
                raise InterpreterFault(
                    f"live-count drift in {act.instance}: {have} != {want}")

    def _charge(self, steps: int):
        self.steps += steps
        if self.steps > MAX_STEPS:
            raise StepBudgetExceeded(f"exceeded {MAX_STEPS} steps")

    def _post_stmt(self):
        self._charge(1)
        if self.gc == "ideal":
            self._sweep()

    # -- expressions ---------------------------------------------------------

    def _eval(self, e: Expr):
        act = self.stack[-1]
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, StrLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, NullLit):
            return None
        if isinstance(e, VarRef):
            try:
                return act.locals[e.name]
            except KeyError:
                raise OracleError(f"undefined local {e.name!r}") from None
        if isinstance(e, ThisRef):
            return act.this
        if isinstance(e, ParenExpr):
            return self._eval(e.inner)
        if isinstance(e, FieldRef):
            return self._obj(self._eval(e.base)).fields[e.field]
        if isinstance(e, LengthRef):
            base = self._eval(e.base)
            if isinstance(base, str):
                return len(base)
            obj = self._obj(base)
            if obj.length is None:
                raise OracleError(f"{obj.cls} has no length")
            return obj.length
        if isinstance(e, IndexRef):
            obj = self._obj(self._eval(e.base))
            idx = self._eval(e.index)
            if obj.length is None or not 0 <= idx < obj.length:
                raise ArrayBounds(f"index {idx} outside [0, {obj.length})")
            return obj.fields[idx]
        if isinstance(e, Unary):
            v = self._eval(e.operand)
            return -v if e.op == "-" else not v
        if isinstance(e, MaxExpr):
            return max(self._eval(e.left), self._eval(e.right))
        if isinstance(e, Binary):
            if e.op == "&&":
                return bool(self._eval(e.left)) and bool(self._eval(e.right))
            if e.op == "||":
                return bool(self._eval(e.left)) or bool(self._eval(e.right))
            lhs = self._eval(e.left)
            rhs = self._eval(e.right)
            if e.op == "+":
                return lhs + rhs
            if e.op == "-":
                return lhs - rhs
            if e.op == "*":
                return lhs * rhs
            if e.op == "/":
                return _trunc_div(lhs, rhs)
            return self._compare(e.op, lhs, rhs)
        raise OracleError(f"cannot evaluate {type(e).__name__}")

    @staticmethod
    def _compare(rel: str, lhs, rhs) -> bool:
        if rel == "==":
            return lhs == rhs
        if rel == "!=":
            return lhs != rhs
        if rel == "<":
            return lhs < rhs
        if rel == "<=":
            return lhs <= rhs
        if rel == ">":
            return lhs > rhs
        if rel == ">=":
            return lhs >= rhs
        raise OracleError(f"unknown comparison {rel!r}")

    def _store(self, target: Expr, value):
        act = self.stack[-1]
        if isinstance(target, VarRef):
            self._set_local(act, target.name, value)
        elif isinstance(target, FieldRef):
            self._set_field(self._obj(self._eval(target.base)), target.field, value)
        elif isinstance(target, IndexRef):
            obj = self._obj(self._eval(target.base))
            idx = self._eval(target.index)
            if obj.length is None or not 0 <= idx < obj.length:
                raise ArrayBounds(f"index {idx} outside [0, {obj.length})")
            self._set_field(obj, idx, value)
        else:
            raise OracleError(f"bad assignment target {type(target).__name__}")

    # -- statements ----------------------------------------------------------

    def _exec_block(self, stmts):
        for s in stmts:
            self._exec(s)
            self._post_stmt()

    def _exec(self, s):
        if isinstance(s, LocalDecl):
            value = self._eval(s.init) if s.init is not None \
                else _default(s.decl_type)
            self._set_local(self.stack[-1], s.name, value)
        elif isinstance(s, Assign):
            self._store(s.target, self._eval(s.value))
        elif isinstance(s, AugAssign):
            self._store(s.target, self._eval(s.target) + self._eval(s.value))
        elif isinstance(s, NewStmt):
            self._do_new(s)
        elif isinstance(s, CallStmt):
            self._do_call(s)
        elif isinstance(s, ReturnStmt):
            raise _Return(self._eval(s.value) if s.value is not None else None)
        elif isinstance(s, IfStmt):
            branch = s.then_body if self._eval(s.cond) else s.else_body
            self._exec_block(branch)
        elif isinstance(s, ForStmt):
            lo = self._eval(s.lo)
            hi = self._eval(s.hi)
            for i in range(lo, hi + 1):
                self._set_local(self.stack[-1], s.var, i)
                self._exec_block(s.body)
        # contract and escape annotations carry no runtime behavior; requires
        # is checked at entry and ensure at exit
        return None

    def _do_new(self, s: NewStmt):
        ctor_ran = False
        if s.length is not None:
            length = self._eval(s.length)
            if length < 0:
                raise ArrayBounds(f"negative array length {length}")
            self._charge(length)  # before building the elements
            elems = dict.fromkeys(range(length))  # class elements start null
            ref = self._alloc(s.class_ref.key(), length, s.site or "", elems, length)
        else:
            ref = self._instance(s.class_ref.name, s.site or "")
            ctor = callee_of(s)
            if ctor is not None:
                values = [self._eval(a) for a in s.args]
                self._invoke(ctor, ref, values, [], direct=False)
                ctor_ran = True
        if s.target is not None:
            self._store(s.target, ref)
        if ctor_ran:
            self._method_exit_sweep()

    def _do_call(self, s: CallStmt):
        callee = callee_of(s)
        if s.receiver is not None:
            this = self._eval(s.receiver)
            if this is None:
                raise NullDereference(f"call to {s.method} on null")
        else:
            this = self.stack[-1].this
        values = []
        outs = []
        for param, arg in zip(callee.params, s.args):
            if isinstance(arg, OutArg):
                outs.append((param.name, arg.target))
                values.append(_default(param.decl_type))
            else:
                values.append(self._eval(arg))
        ret = self._invoke(callee, this, values, outs, direct=False)
        if s.target is not None:
            self._store(s.target, ret)
        self._method_exit_sweep()

    def _invoke(self, callee: MethodDecl, this: Ref | None, values: list,
                outs: list, direct: bool):
        act = self._push(callee, this, values, direct)
        ret = None
        try:
            self._exec_block(callee.body)
        except _Return as r:
            ret = r.value
        self._finish(act, ret)
        self._assert_accounting([act])
        out_values = {name: act.locals[name] for name, _ in outs}
        self._pop(act)
        for name, target in outs:
            if target is not None:
                self._store(target, out_values[name])
        return ret

    def _method_exit_sweep(self):
        # runs once per return, but only after the caller has rooted the
        # returned or constructed object; a real collector sees that value
        # in a register, not garbage
        if self.gc == "method-exit":
            self._sweep()
            self._assert_accounting()

    def _finish(self, act: Activation, ret):
        """Exit protocol: ensures, then escape measurement, before any sweep."""
        for e in act.ensures:
            if not self._eval(e.cond):
                self.failures.append(AssertionFailure(
                    act.method.qname, act.instance, expr_to_str(e.cond)))
        roots: dict[str, object] = {}
        if act.method.return_type.key() != "void" and ret is not None:
            roots["Return"] = ret
        if act.this is not None:
            roots["This"] = act.this
        contract = act.method.contract
        if contract is not None:
            for tag, path in contract.bindings.items():
                val = self._follow(act, ret, path)
                if val is not None:
                    roots[tag.counter_str()] = val
        esc: dict[str, dict[str, int]] = {}
        counted_per_tag: dict[str, set[int]] = {}
        for tag_name, root in roots.items():
            reached = self._reach([root])
            mine = {oid for oid in reached
                    if act.serial < self.heap[oid].born}
            counted_per_tag[tag_name] = mine
            by_cls: dict[str, int] = {}
            for oid in mine:
                obj = self.heap[oid]
                if obj.weight:  # zero-length arrays contribute nothing
                    by_cls[obj.cls] = by_cls.get(obj.cls, 0) + obj.weight
            if by_cls:
                by_cls[OBJECT_KEY] = sum(by_cls.values())
                esc[tag_name] = by_cls
        doubled: set[str] = set()
        for a, b in itertools.combinations(counted_per_tag.values(), 2):
            for oid in a & b:
                doubled.add(self.heap[oid].cls)
        self.observations.append(Observation(
            act.method.qname, act.instance, act.entry_env,
            {k: v for k, v in act.peak.items() if v},
            esc, tuple(sorted(doubled))))
        self.trace.append(("ret", act.method.qname, act.instance))

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


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise OracleError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


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
    method = interp.methods.get(qname)
    if method is None:
        raise OracleError(f"no method named {qname}")
    harness = interp.push_harness()
    try:
        this, values, outs = bind(interp, method, harness)
        if method.is_ctor:
            this = interp._instance(method.cls, HARNESS)
            interp._invoke(method, this, values, outs, direct=True)
            ret = this
        else:
            ret = interp._invoke(method, this, values, outs, direct=True)
    except RecursionError:
        # each MCL call takes several Python frames
        raise StackExhausted("calls nest deeper than the interpreter's"
                             " Python stack allows") from None
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
    values: tuple


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
        n = 1
        for k in self.knobs:
            n *= len(k.values)
        return n


def _param_knobs(params, prefix: str, hi: int):
    """Knobs for a parameter list, or a reason it cannot be synthesized."""
    span = tuple(range(hi + 1))
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

    Raises RequiresViolation with direct=True when the point itself is
    outside the method's (or the receiver constructor's) precondition.
    """
    def bind(interp: Interp, method: MethodDecl, harness: Activation):
        this = None
        if not method.is_ctor:
            this = interp._instance(method.cls, HARNESS)
            interp._set_local(harness, "<receiver>", this)
            ctor = interp.classes[method.cls].ctor()
            if ctor is not None:
                values, outs = _bind_args(
                    interp, ctor.params, _point_values(ctor.params, "ctor.", point))
                interp._invoke(ctor, this, values, outs, direct=True)
                interp._method_exit_sweep()
        values, outs = _bind_args(
            interp, method.params, _point_values(method.params, "", point))
        return this, values, outs

    return _drive(program, qname, gc, bind)


# -- grid validation -------------------------------------------------------


@dataclass
class BoundViolation:
    entry: str
    point: dict
    method: str
    instance: str
    clause: str
    declared: str
    declared_value: int
    observed: int
    entry_env: dict[str, int]
    trace: list[tuple]

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
        }


@dataclass
class OracleReport:
    violations: list[BoundViolation]
    ensure_failures: list[tuple]   # (entry, point, AssertionFailure)
    requires_aborts: list[tuple]   # (entry, point, callee qname)
    runtime_errors: list[tuple]    # (entry, point, message)
    runs: int
    points_skipped: int
    methods_skipped: list[tuple]   # (qname, reason)

    @property
    def clean(self) -> bool:
        return not (self.violations or self.ensure_failures
                    or self.requires_aborts or self.runtime_errors)

    def to_json(self) -> dict:
        return {
            "violations": [v.to_json() for v in self.violations],
            "ensureFailures": [
                {"entry": e, "point": dict(sorted(p.items())),
                 "method": f.method, "instance": f.instance, "cond": f.cond}
                for e, p, f in self.ensure_failures
            ],
            "requiresAborts": [
                {"entry": e, "point": dict(sorted(p.items())), "callee": c}
                for e, p, c in self.requires_aborts
            ],
            "runtimeErrors": [
                {"entry": e, "point": dict(sorted(p.items())), "error": msg}
                for e, p, msg in self.runtime_errors
            ],
            "runs": self.runs,
            "pointsSkipped": self.points_skipped,
            "methodsSkipped": [list(t) for t in self.methods_skipped],
        }


def _declared_value(bound: SymExpr, env: dict[str, int]):
    if not bound.variables() <= set(env):
        return None
    return bound.eval(env)


def _compare_observation(obs: Observation, method: MethodDecl, entry: str,
                         point: dict, trace: list, out: list):
    contract = method.contract
    if contract is None or not contract.has_clauses():
        return
    for key, bound in contract.mem_req.items():
        declared = _declared_value(bound, obs.entry_env)
        if declared is None:
            continue
        observed = obs.peak.get(key, 0)
        if observed > declared:
            out.append(BoundViolation(
                entry, point, obs.method, obs.instance, f"memreq<{key}>",
                str(bound), int(declared), observed, obs.entry_env, trace))
    for (tag, key), bound in contract.esc.items():
        declared = _declared_value(bound, obs.entry_env)
        if declared is None:
            continue
        observed = obs.esc.get(tag.counter_str(), {}).get(key, 0)
        if observed > declared:
            out.append(BoundViolation(
                entry, point, obs.method, obs.instance,
                f"esc<{key}>({tag.source_str()})",
                str(bound), int(declared), observed, obs.entry_env, trace))


def validate(program: Program, hi: int = 8, gc: str = "ideal") -> OracleReport:
    """Drive every contracted method over the argument grid 0..hi and
    compare the measured peaks and escapes against its declared bounds."""
    report = OracleReport([], [], [], [], 0, 0, [])
    plans = []
    total = 0
    for m in sorted(program.methods(), key=lambda m: m.qname):
        if m.contract is None or not m.contract.has_clauses():
            continue
        plan = harness_plan(program, m.qname, hi)
        if plan.skip_reason:
            report.methods_skipped.append((m.qname, plan.skip_reason))
            continue
        plans.append(plan)
        total += plan.point_count()
    if total > MAX_POINTS:
        raise GridTooLarge(f"{total} grid points exceed the {MAX_POINTS} cap")
    for plan in plans:
        method = program.method(plan.method)
        for point in plan.points():
            try:
                result = run_point(program, plan.method, point, gc=gc)
            except RequiresViolation as rv:
                if rv.direct:
                    report.points_skipped += 1
                else:
                    report.requires_aborts.append(
                        (plan.method, point, rv.method))
                continue
            except OracleError as err:
                report.runtime_errors.append((plan.method, point, str(err)))
                continue
            report.runs += 1
            for failure in result.assertion_failures:
                report.ensure_failures.append((plan.method, point, failure))
            for obs in result.observations:
                _compare_observation(obs, program.method(obs.method),
                                     plan.method, point, result.trace,
                                     report.violations)
    return report
