"""AST and vocabulary of the contract mini-language.

Nodes are plain dataclasses built by the parser and annotated in place by
the resolver; after resolution they are treated as immutable.  Fields that
carry resolution results or source positions are excluded from equality so
that structural identity survives reprinting and instrumentation.

The annotation language is spelled here once: `SHAPES` gives each keyword
statement's source form, which the parser reads and the printer writes, and
`CONTRACT_STMTS` and `ANNOTATION_STMTS` sort those statements by role.

So is the reading of a contract expression, by `_read_expr`: `expr_poly`
reads a polynomial and `expr_bound` a declared bound, which may hold a
`max`, with `Poly` arithmetic alone, so no degree cap meets a contract.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction

from ..symexpr import LinConstraint, Poly, SYM_ZERO, SymExpr, sym_sum


@dataclass(frozen=True)
class Pos:
    line: int
    col: int


NOPOS = Pos(0, 0)


@dataclass(frozen=True)
class TypeRef:
    name: str
    is_array: bool = False

    def key(self) -> str:
        return f"{self.name}[]" if self.is_array else self.name

    def element(self) -> TypeRef:
        if not self.is_array:
            raise ValueError(f"{self} is not an array type")
        return TypeRef(self.name)

    def __str__(self) -> str:
        return self.key()


T_INT = TypeRef("int")

PRIMITIVES = {"int", "bool", "string", "void"}


@dataclass(frozen=True)
class Tag:
    kind: str  # return | this | user
    name: str

    @staticmethod
    def ret() -> Tag:
        return Tag("return", "Return")

    @staticmethod
    def this() -> Tag:
        return Tag("this", "This")

    @staticmethod
    def user(name: str) -> Tag:
        return Tag("user", name)

    def source_str(self) -> str:
        """The tag as written: `return` and `this` are their kind's keyword."""
        return self.name if self.kind == "user" else self.kind

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PathExpr:
    root: str  # "this", "return", or a parameter name
    fields: tuple[str, ...] = ()

    def __str__(self) -> str:
        return ".".join((self.root,) + self.fields)


def _meta(default=None):
    return field(default=default, compare=False, repr=False)


@dataclass
class Node:
    """A syntax tree node: its source position is kept, never compared."""

    pos: Pos = field(default=NOPOS, compare=False, repr=False, kw_only=True)


# --- expressions -----------------------------------------------------------

@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class StrLit(Expr):
    value: str


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class NullLit(Expr):
    pass


@dataclass
class VarRef(Expr):
    name: str


@dataclass
class ThisRef(Expr):
    pass


@dataclass
class FieldRef(Expr):
    base: Expr
    field: str


@dataclass
class LengthRef(Expr):
    base: Expr


@dataclass
class IndexRef(Expr):
    base: Expr
    index: Expr


@dataclass
class Unary(Expr):
    op: str  # - or !
    operand: Expr


# Binary operators by level, loosest first: the parser climbs this table,
# the printer parenthesizes by it, and a level at or below the relations'
# yields a bool.  Relations do not chain: `a < b < c` is a syntax error.
RELATIONS = ("<=", ">=", "==", "!=", "<", ">")
BINARY_PREC = {op: level for level, ops in enumerate(
    (("||",), ("&&",), RELATIONS, ("+", "-"), ("*", "/")), 1) for op in ops}


@dataclass
class Binary(Expr):
    op: str  # a key of BINARY_PREC
    left: Expr
    right: Expr


@dataclass
class MaxExpr(Expr):
    left: Expr
    right: Expr


@dataclass
class ParenExpr(Expr):
    inner: Expr


@dataclass
class Cmp(Node):
    """One comparison inside requires(...) or iteration_space(...), at its
    relation."""

    left: Expr
    rel: str
    right: Expr


# --- statements ------------------------------------------------------------

@dataclass
class Stmt(Node):
    pass


@dataclass
class LocalDecl(Stmt):
    decl_type: TypeRef
    name: str
    init: Expr | None


@dataclass
class Assign(Stmt):
    target: Expr  # VarRef, FieldRef, or IndexRef used as an lvalue
    value: Expr


@dataclass
class AugAssign(Stmt):
    """target += value; emitted by the instrumenter, accepted everywhere."""

    target: Expr
    value: Expr


@dataclass
class NewStmt(Stmt):
    target: Expr
    decl_type: TypeRef | None
    class_ref: TypeRef
    args: list[Expr]
    length: Expr | None = None  # set for array allocations
    dest_esc: Tag | None = None
    dest_local: bool = False
    add_esc: list[tuple[Tag, Tag]] = field(default_factory=list)
    site: str | None = _meta()  # "<qname>#<ordinal>", resolver-assigned
    callee: MethodDecl | None = _meta()  # the constructor it runs; see callee_of


@dataclass
class OutArg(Node):
    target: Expr


@dataclass
class CallStmt(Stmt):
    target: Expr | None
    decl_type: TypeRef | None
    receiver: Expr | None
    method: str
    args: list[Expr | OutArg]
    add_esc: list[tuple[Tag, Tag]] = field(default_factory=list)
    site: str | None = _meta()
    callee: MethodDecl | None = _meta()  # see callee_of


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class ForStmt(Stmt):
    var: str
    lo: Expr
    hi: Expr
    body: list[Stmt]
    space: list[Cmp] | None = None  # leading iteration_space(...) of the body
    # the header's (lo, hi) over unassigned entry values and the indices of
    # enclosing loops that have one, None when either is not such a
    # polynomial or lo has a negative coefficient; the range that is summed
    resolved_range: tuple[Poly, Poly] | None = _meta()
    resolved_space: tuple[LinConstraint, ...] | None = _meta()  # a claim on it


@dataclass
class RequiresStmt(Stmt):
    constraints: list[Cmp]


@dataclass
class MemReqStmt(Stmt):
    class_ref: TypeRef
    expr: Expr


@dataclass
class EscStmt(Stmt):
    class_ref: TypeRef
    tag: Tag
    expr: Expr


@dataclass
class BindEscStmt(Stmt):
    tag: Tag
    path: PathExpr


@dataclass
class EnsureStmt(Stmt):
    cond: Expr


@dataclass
class DestEscStmt(Stmt):
    """A dest_esc that did not precede an allocation; kept for the linter."""

    tag: Tag


@dataclass
class DestLocalStmt(Stmt):
    pass


@dataclass
class AddEscStmt(Stmt):
    dst: Tag
    src: Tag


@dataclass
class IterationSpaceStmt(Stmt):
    constraints: list[Cmp]


# Each keyword statement as its node class and its shape in source order: a
# word is the kind of the node's next field (tag, type, expr, cmps, path),
# anything else is punctuation the statement must have there.  The parser
# reads each kind and the printer writes it, so source reads back as printed.
SHAPES = {
    "dest_esc": (DestEscStmt, "( tag ) ;"),
    "dest_local": (DestLocalStmt, ";"),
    "add_esc": (AddEscStmt, "( tag , tag ) ;"),
    "requires": (RequiresStmt, "( cmps ) ;"),
    "iteration_space": (IterationSpaceStmt, "( cmps ) ;"),
    "memreq": (MemReqStmt, "< type > ( expr ) ;"),
    "esc": (EscStmt, "< type > ( tag , expr ) ;"),
    "bind_esc": (BindEscStmt, "( tag , path ) ;"),
    "ensure": (EnsureStmt, "( expr ) ;"),
}
# The clauses of a method's contract, which lead its body, and the escape
# annotations the parser attaches to the allocation or call that follows.
CONTRACT_STMTS = (RequiresStmt, MemReqStmt, EscStmt, BindEscStmt)
ANNOTATION_STMTS = (DestEscStmt, DestLocalStmt, AddEscStmt)


# --- declarations ----------------------------------------------------------

@dataclass
class FieldDecl(Node):
    decl_type: TypeRef
    name: str


@dataclass
class Param(Node):
    decl_type: TypeRef
    name: str
    is_out: bool = False


# The pseudo-class every allocation also counts towards: the key says how a
# clause is counted, `object` every class together and a class itself.
OBJECT_KEY = "object"


@dataclass(frozen=True)
class Clause:
    """One bound: `memreq<key>(bound)` when tag is None, else
    `esc<key>(tag, bound)`; an absent clause's zero is not `declared`."""

    tag: Tag | None
    key: str
    bound: SymExpr
    declared: bool = True

    @property
    def label(self) -> str:
        if self.tag is None:
            return f"memreq<{self.key}>"
        return f"esc<{self.key}>({self.tag.source_str()})"

    @property
    def whole(self) -> bool:
        """A declared object clause: it covers its tag, every class in it."""
        return self.declared and self.key == OBJECT_KEY


def collapsed(clauses: Iterable[Clause]) -> list[Clause]:
    """The one collapse onto `object`: per tag, in the order the tags first
    appear, its object clause, else the sum of its clauses, declared if any is."""
    by_tag: dict[Tag | None, list[Clause]] = {}
    for c in clauses:
        by_tag.setdefault(c.tag, []).append(c)
    return [next((c for c in cs if c.whole), None) or Clause(
        tag, OBJECT_KEY, sym_sum(c.bound for c in cs), any(c.declared for c in cs))
        for tag, cs in by_tag.items()]


class MethodContract:
    """Resolved contract clauses of one method."""

    def __init__(self):
        self.requires: tuple[LinConstraint, ...] = ()
        self.mem_req: dict[str, SymExpr] = {}
        self.esc: dict[tuple[Tag, str], SymExpr] = {}
        self.bindings: dict[Tag, PathExpr] = {}

    def clauses(self) -> list[Clause]:
        """The declared clauses, each at the key it names, in declaration
        order, every memreq before every esc."""
        out = [Clause(None, key, e) for key, e in self.mem_req.items()]
        return out + [Clause(tag, key, e) for (tag, key), e in self.esc.items()]

    def bounds_for(self, keys: Iterable[str]) -> list[Clause]:
        """What a caller that counts `keys` reads at each: at `object`,
        `collapsed(clauses())`; at a class, per tag, its own clause, else the
        bound of the object clause that hides it, as no class counts more
        than every class together."""
        own, keys = self.clauses(), dict.fromkeys(keys)
        named = {(c.tag, c.key) for c in own}
        hidden = [Clause(c.tag, key, c.bound) for c in own if c.whole
                  for key in keys if (c.tag, key) not in named]
        return (collapsed(own) if OBJECT_KEY in keys else []) + [
            c for c in own + hidden if c.key in keys and c.key != OBJECT_KEY]


@dataclass
class MethodDecl(Node):
    name: str
    params: list[Param]
    return_type: TypeRef
    body: list[Stmt]
    cls: str = ""
    is_ctor: bool = False
    contract: MethodContract | None = _meta()

    @property
    def qname(self) -> str:
        return f"{self.cls}.{self.name}"


@dataclass
class ClassDecl(Node):
    name: str
    fields: list[FieldDecl]
    methods: list[MethodDecl]

    def field_map(self) -> dict[str, FieldDecl]:
        return {f.name: f for f in self.fields}

    def ctor(self) -> MethodDecl | None:
        for m in self.methods:
            if m.is_ctor:
                return m
        return None


@dataclass
class Program:
    classes: list[ClassDecl]
    source_name: str = _meta("<mcl>")
    resolved: bool = _meta(False)

    def class_map(self) -> dict[str, ClassDecl]:
        return {c.name: c for c in self.classes}

    def methods(self) -> list[MethodDecl]:
        return [m for c in self.classes for m in c.methods]

    def method(self, qname: str) -> MethodDecl:
        cls, _, name = qname.partition(".")
        for c in self.classes:
            if c.name == cls:
                for m in c.methods:
                    if m.name == name:
                        return m
        raise KeyError(qname)

    def __deepcopy__(self, memo) -> Program:
        # A work list, not recursion: nesting and call chains cost no Python
        # frames.  Every list, dict and mutable node is copied once, however
        # many links reach it (a callee from each of its call sites), so the
        # copy's links stay inside the copy; frozen values are shared.
        copies: dict[int, object] = {}
        work: list = []

        def clone(x):
            if not isinstance(x, (list, dict)) and (
                    not hasattr(x, "__dict__")
                    or is_dataclass(x) and x.__dataclass_params__.frozen):
                return x
            if id(x) not in copies:
                copies[id(x)] = copy.copy(x)
                work.append(copies[id(x)])
            return copies[id(x)]

        out = clone(self)
        while work:
            node = work.pop()
            if isinstance(node, list):
                node[:] = map(clone, node)
            else:
                slots = node if isinstance(node, dict) else vars(node)
                for k, v in slots.items():
                    slots[k] = clone(v)
        return out


# --- traversal -----------------------------------------------------------------

def iter_stmts(body: list[Stmt]) -> Iterator[Stmt]:
    """Statements in syntactic pre-order, through both arms of every `if`
    and into every loop body."""
    for s in body:
        yield s
        if isinstance(s, IfStmt):
            yield from iter_stmts(s.then_body)
            yield from iter_stmts(s.else_body)
        elif isinstance(s, ForStmt):
            yield from iter_stmts(s.body)


def callee_of(stmt: Stmt) -> MethodDecl | None:
    """The method a resolved call invokes, or the constructor a non-array
    `new` runs; None for every other statement."""
    return stmt.callee if isinstance(stmt, (CallStmt, NewStmt)) else None


def obligations(method: MethodDecl) -> list[Clause]:
    """What a method claims: its declared clauses (`MethodContract.clauses`),
    then a zero bound, not declared, for each (tag, key) its body charges
    that none declares, memreqs by key before escapes by tag: an absent
    clause declares zero, except a class's under a tag (memreq, or an `esc`
    tag) that an object clause covers (`Clause.whole`).  The charges are
    read from the statements: each `new` and its `dest_esc`, each callee's
    clause keys, and each `add_esc` pull of a tag they escape under.
    `--mode object` reads `collapsed(obligations(method))`."""
    declared = method.contract.clauses()
    charged: set[tuple[Tag | None, str]] = set()
    for s in iter_stmts(method.body):
        if isinstance(s, NewStmt):
            key = s.class_ref.key()
            charged |= {(None, key), (s.dest_esc, key)}
        callee = callee_of(s)
        for c in callee.contract.clauses() if callee is not None else ():
            charged.add((None, c.key))
            charged.update((dst, c.key) for dst, src in s.add_esc if src == c.tag)
    charged -= {(c.tag, c.key) for c in declared}
    covered = {c.tag for c in declared if c.whole}
    return declared + [Clause(tag, key, SYM_ZERO, False) for tag, key in
                       sorted(charged, key=lambda k: (k[0] is not None, str(k[0]), k[1]))
                       if tag not in covered]


# --- contract variables -------------------------------------------------------
#
# A contract is a polynomial over integers fixed when its method is entered.
# Each such contract variable is named by the source text that reads it:
#
#     n               an int in-parameter
#     a.length        the length of an array in-parameter a
#     this.f          an int field of the receiver
#     this.f.length   the length of an array field f of the receiver
#
# Out-parameters are never contract variables.  Callers that read a loop
# header or an iteration space add the enclosing loop variables, which are
# plain names, to the admissible set.  A body reads only those of
# `unassigned_entry_vars`; contract clauses read them all.

def entry_vars(method: MethodDecl, cls: ClassDecl) -> set[str]:
    """The contract variables of a method of `cls`."""
    names: set[str] = set()
    for p in method.params:
        if p.is_out:
            continue
        if p.decl_type.key() == "int":
            names.add(p.name)
        elif p.decl_type.is_array:
            names.add(f"{p.name}.length")
    for f in cls.fields:
        if f.decl_type.key() == "int":
            names.add(f"this.{f.name}")
        elif f.decl_type.is_array:
            names.add(f"this.{f.name}.length")
    return names


_ASSIGNING = {Assign, AugAssign, NewStmt, CallStmt}  # the statements with a target


def unassigned_entry_vars(method: MethodDecl, cls: ClassDecl) -> set[str]:
    """The contract variables of a method of `cls` that its body may read
    as their entry values: all but those of an in-parameter that the body
    assigns, as the target of an assignment, a `new` or a call, as an `out`
    argument, or as a loop variable.  An assigned field is not caught."""
    assigned: set[str] = set()
    for s in iter_stmts(method.body):
        kind = type(s)
        if kind is ForStmt:
            assigned.add(s.var)
        elif kind in _ASSIGNING:
            if type(s.target) is VarRef:
                assigned.add(s.target.name)
            if kind is CallStmt:
                assigned.update(a.target.name for a in s.args
                                if type(a) is OutArg and type(a.target) is VarRef)
    return {v for v in entry_vars(method, cls) if v.partition(".")[0] not in assigned}


def expr_poly(e: Expr, admissible: set[str] | None,
              report: Callable[[str, str, Pos], None] | None = None) -> Poly | None:
    """Read an integer expression as a polynomial over `admissible` names,
    or over every name it reads when `admissible` is None; see `_read_expr`."""
    return _read_expr(e, admissible, report, False)


def expr_bound(e: Expr, admissible: set[str] | None,
               report: Callable[[str, str, Pos], None] | None = None) -> SymExpr | None:
    """Read a declared bound: a polynomial, where a `max` may also stand."""
    alts = _alts(_read_expr(e, admissible, report, True))
    return SymExpr(alts) if alts else None  # pruned as they were read


def _alts(p: Poly | tuple[Poly, ...] | None) -> tuple[Poly, ...]:
    return p if isinstance(p, tuple) else () if p is None else (p,)


def _read_expr(e: Expr, admissible: set[str] | None,
               report: Callable[[str, str, Pos], None] | None,
               bound: bool) -> Poly | tuple[Poly, ...] | None:
    """The one reader of contract expressions.  Gives None when some part
    cannot be read.  Each such part is also passed to `report(code,
    message, pos)` when one is given; the operands of an operator are read
    first, so every bad name is reported before the operator is judged.
    In a `bound` a max may be added to or have a polynomial subtracted from
    it: a part that holds one gives the tuple of its alternatives, empty
    when they cannot be read."""
    admits = (lambda name: True) if admissible is None else admissible.__contains__
    return _read(e, admits, report, bound)


def _fail(report: Callable[[str, str, Pos], None] | None,
          code: str, message: str, pos: Pos) -> None:
    if report is not None:
        report(code, message, pos)
    return None


def _read(e: Expr, admits: Callable[[str], bool],
          report: Callable[[str, str, Pos], None] | None,
          bound: bool) -> Poly | tuple[Poly, ...] | None:
    """`_read_expr` once `admissible` is a test.  A module function, not a
    closure that calls itself: such a closure is a reference cycle, which
    would keep the tree that `report` reaches alive until the cycle
    collector runs."""
    if isinstance(e, ParenExpr):
        return _read(e.inner, admits, report, bound)
    if isinstance(e, IntLit):
        return Poly.const(e.value)
    if isinstance(e, VarRef):
        if admits(e.name):
            return Poly.var(e.name)
        return _fail(report, "bad-contract-expr", f"may not mention {e.name}; only "
                     "entry-constant integers are allowed", e.pos)
    if isinstance(e, FieldRef) and isinstance(e.base, ThisRef):
        name = f"this.{e.field}"
        if admits(name):
            return Poly.var(name)
        return _fail(report, "bad-contract-expr", f"may not mention {name}", e.pos)
    if isinstance(e, LengthRef):
        name = None
        if isinstance(e.base, VarRef):
            name = f"{e.base.name}.length"
        elif isinstance(e.base, FieldRef) and isinstance(e.base.base, ThisRef):
            name = f"this.{e.base.field}.length"
        if name is not None and admits(name):
            return Poly.var(name)
        return _fail(report, "bad-contract-expr", "may not take this length", e.pos)
    if isinstance(e, MaxExpr) and bound:
        a = _alts(_read(e.left, admits, report, bound))
        b = _alts(_read(e.right, admits, report, bound))
        return SymExpr.of(*a, *b).alts if a and b else ()
    if isinstance(e, Unary) and e.op == "-":
        p = _read(e.operand, admits, report, bound)
        if isinstance(p, tuple):
            return _fail(report, "bad-contract-expr", "max may only be combined additively",
                         e.pos)
        return None if p is None else -p
    if isinstance(e, Binary) and e.op in ("+", "-", "*", "/"):
        a, b = _read(e.left, admits, report, bound), _read(e.right, admits, report, bound)
        if isinstance(a, tuple) or isinstance(b, tuple):
            if e.op == "-" and isinstance(b, tuple):
                return _fail(report, "bad-contract-expr", "max may not be subtracted", e.pos)
            if e.op not in ("+", "-"):
                return _fail(report, "bad-contract-expr", "max may only be combined additively",
                             e.pos)
            sums = [p + q if e.op == "+" else p - q for p in _alts(a) for q in _alts(b)]
            return SymExpr.of(*sums).alts if sums else ()  # none when a side is unread
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if not b.is_const() or b.const_value() == 0:
            return _fail(report, "bad-divisor", "may only divide by a nonzero constant", e.pos)
        return a.scale(Fraction(1, b.const_value()))
    return _fail(report, "bad-contract-expr", "must be a polynomial expression", e.pos)


def var_expr(name: str) -> Expr:
    """The expression that reads a contract variable; expr_poly's inverse."""
    if name.startswith("this."):
        rest = name[len("this."):]
        if rest.endswith(".length"):
            return LengthRef(FieldRef(ThisRef(), rest[: -len(".length")]))
        return FieldRef(ThisRef(), rest)
    if name.endswith(".length"):
        return LengthRef(VarRef(name[: -len(".length")]))
    return VarRef(name)


# --- canonical serialization -------------------------------------------------

def node_to_data(node):
    """Structural dump of an AST node, dropping positions and resolution."""
    if is_dataclass(node) and not isinstance(node, type):
        out = {"kind": type(node).__name__}
        for f in fields(node):
            if not f.compare:
                continue
            out[f.name] = node_to_data(getattr(node, f.name))
        return out
    if isinstance(node, (list, tuple)):
        return [node_to_data(x) for x in node]
    if isinstance(node, (str, int, bool)) or node is None:
        return node
    return str(node)


def program_to_json(program: Program) -> str:
    return json.dumps(node_to_data(program), separators=(",", ":"), sort_keys=False)
