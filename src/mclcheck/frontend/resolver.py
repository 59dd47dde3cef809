"""Name/type resolution, contract extraction, and structural lints.

Resolution is flow-insensitive: every method gets one symbol table built
from its parameters and all declarations anywhere in its body.  That is
enough for receiver typing because call results must be bound through a
declaring statement, and it keeps instrumented output (whose counters are
declared mid-body but ensured at the top) resolvable without special
cases.

Contract expressions are read by `syntax`'s one reader (`expr_poly`,
`expr_bound`); this module says which names each may read.

Each class's fields and methods are tabled once per `resolve`: a field
name finds its last declaration, a method name its first.  Statements and
expressions dispatch on their node type, through `_STATEMENTS` and
`_TYPES`.  An `if` is resolved in place and an expression's reader calls
those of its parts directly, so that a nest costs two frames per `if`,
three per `for` and one per expression level: which nest is too deep to
resolve depends on it.
"""

from __future__ import annotations

from collections.abc import Callable

from ..symexpr import LinConstraint
from .diagnostics import Diagnostic, ResolveFailure, SEV_ERROR, SEV_WARNING
from .syntax import (
    ANNOTATION_STMTS, Assign, AugAssign, Binary, BINARY_PREC, BindEscStmt,
    BoolLit, CallStmt, ClassDecl, Cmp, CONTRACT_STMTS, EnsureStmt, EscStmt,
    Expr, FieldDecl, FieldRef, ForStmt, IfStmt, IndexRef, IntLit,
    IterationSpaceStmt, LengthRef, LocalDecl, MaxExpr, MemReqStmt,
    MethodContract, MethodDecl, NewStmt, NullLit, NOPOS, OBJECT_KEY, OutArg,
    Param, ParenExpr, Pos, PRIMITIVES, Program, RequiresStmt, ReturnStmt,
    StrLit, Stmt, T_INT, Tag, ThisRef, TypeRef, Unary, VarRef, entry_vars,
    expr_bound, expr_poly, iter_stmts, unassigned_entry_vars,
)

_T_BOOL, _T_STRING = TypeRef("bool"), TypeRef("string")
_RELATION_PREC = BINARY_PREC["<"]  # an operator at this level or looser yields a bool


class _Resolver:
    def __init__(self, program: Program):
        self.program = program
        self.diags: list[Diagnostic] = []
        self.classes: dict[str, ClassDecl] = {}
        # per class, built once: each field by name, its last declaration,
        # and each method by name, its first
        self.fields: dict[str, dict[str, FieldDecl]] = {}
        self.methods: dict[str, dict[str, MethodDecl]] = {}

    # -- diagnostics ---------------------------------------------------------

    def error(self, code: str, message: str, pos: Pos = NOPOS) -> None:
        self.diags.append(Diagnostic(SEV_ERROR, code, message,
                                     self.program.source_name, pos.line, pos.col))

    def warn(self, code: str, message: str, pos: Pos = NOPOS) -> None:
        self.diags.append(Diagnostic(SEV_WARNING, code, message,
                                     self.program.source_name, pos.line, pos.col))

    # -- top level -----------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        for c in self.program.classes:
            if c.name in self.classes:
                self.error("duplicate-class", f"class {c.name} is declared twice", c.pos)
            self.classes[c.name] = c
        for name, c in self.classes.items():
            self.fields[name] = c.field_map()
            self.methods[name] = table = {}
            for m in c.methods:
                table.setdefault(m.name, m)
        for c in self.program.classes:
            self.check_class(c)
        for c in self.program.classes:
            for m in c.methods:
                try:
                    _MethodResolver(self, c, m).run()
                except RecursionError:  # typeof and the contract reader recurse per operator
                    self.error("nesting-too-deep",
                               f"{m.qname}: an expression nests too deeply to resolve", m.pos)
        if any(d.severity == SEV_ERROR for d in self.diags):
            raise ResolveFailure(self.diags)
        self.program.resolved = True
        return self.diags

    def check_class(self, c: ClassDecl) -> None:
        seen_fields: set[str] = set()
        for f in c.fields:
            if f.name in seen_fields:
                self.error("duplicate-field", f"field {c.name}.{f.name} is declared twice", f.pos)
            seen_fields.add(f.name)
            self.check_type(f.decl_type, f.pos)
        seen_methods: set[str] = set()
        ctors = 0
        for m in c.methods:
            if m.name in seen_methods:
                self.error("duplicate-method", f"method {c.name}.{m.name} is declared twice", m.pos)
            seen_methods.add(m.name)
            if m.is_ctor:
                ctors += 1
        if ctors > 1:
            self.error("duplicate-method", f"class {c.name} has more than one constructor", c.pos)

    def check_type(self, t: TypeRef, pos: Pos) -> None:
        if t.name not in PRIMITIVES and t.name not in self.classes:
            self.error("unknown-type", f"unknown type {t}", pos)

    def is_reference(self, t: TypeRef) -> bool:
        return t.is_array or (t.name in self.classes)

    def lookup_method(self, cls_name: str, method: str) -> MethodDecl | None:
        return self.methods.get(cls_name, {}).get(method)


class _MethodResolver:
    def __init__(self, top: _Resolver, cls: ClassDecl, method: MethodDecl):
        self.top = top
        self.cls = cls
        self.m = method
        self.vars: dict[str, TypeRef] = {}
        self.out_params: set[str] = set()
        self.loop_vars: set[str] = set()
        self.ranged: frozenset[str] = frozenset()  # enclosing indices with a range
        self.assigned: set[str] = set()
        self.contract = MethodContract()
        self.new_ordinal = 0
        self.call_ordinal = 0
        self.entry = entry_vars(method, cls)
        self.unassigned = unassigned_entry_vars(method, cls)  # what headers read

    def error(self, code: str, msg: str, pos: Pos = NOPOS) -> None:
        self.top.error(code, f"{self.m.qname}: {msg}", pos)

    def warn(self, code: str, msg: str, pos: Pos = NOPOS) -> None:
        self.top.warn(code, f"{self.m.qname}: {msg}", pos)

    def run(self) -> None:
        self.m.cls = self.cls.name
        if not self.m.is_ctor:
            self.top.check_type(self.m.return_type, self.m.pos)
        for p in self.m.params:
            self.top.check_type(p.decl_type, p.pos)
            if p.name in self.vars:
                self.error("duplicate-param", f"parameter {p.name} is declared twice", p.pos)
            self.vars[p.name] = p.decl_type
            if p.is_out:
                self.out_params.add(p.name)
        self.collect_decls(self.m.body)
        self.extract_contract()
        self.resolve_block(self.m.body, enclosing_loops=(), nested=False)
        self.m.contract = self.contract
        for p in self.m.params:
            if p.is_out and p.name not in self.assigned:
                self.error("out-never-assigned", f"out parameter {p.name} is never assigned", p.pos)
        if (not self.m.is_ctor and self.m.return_type.key() != "void"
                and not self.always_returns(self.m.body)):
            self.error("missing-return", "control may reach the end without returning a value",
                       self.m.pos)

    # -- symbol table ---------------------------------------------------------

    def declare(self, name: str, t: TypeRef, pos: Pos, loop_var: bool = False) -> None:
        if loop_var:
            prev = self.vars.get(name)
            if prev is not None and prev.key() != "int":
                self.error("duplicate-local", f"loop variable {name} shadows a non-int name", pos)
            self.vars[name] = T_INT
            self.loop_vars.add(name)
            return
        if name in self.vars:
            self.error("duplicate-local", f"{name} is declared twice", pos)
        self.top.check_type(t, pos)
        self.vars[name] = t

    def collect_decls(self, body: list[Stmt]) -> None:
        for s in iter_stmts(body):
            kind = type(s)
            if kind is LocalDecl:
                self.declare(s.name, s.decl_type, s.pos)
            elif (kind is NewStmt or kind is CallStmt) and s.decl_type is not None:
                if type(s.target) is VarRef:
                    self.declare(s.target.name, s.decl_type, s.pos)
                else:
                    self.error("bad-decl", "a declaring statement must bind a plain name", s.pos)
            elif kind is ForStmt:
                self.declare(s.var, T_INT, s.pos, loop_var=True)

    # -- contract extraction ---------------------------------------------------

    def reporter(self, what: str) -> Callable[[str, str, Pos], None]:
        """Report what the contract reader cannot read in a `what` clause; a
        message about max follows a colon."""
        return lambda code, msg, pos: self.error(
            code, f"{what}: {msg}" if msg.startswith("max ") else f"{what} {msg}", pos)

    def constraint_of(self, c: Cmp, extra: set[str], what: str) -> LinConstraint | None:
        if c.rel == "!=":
            self.error("requires-neq", f"{what} may not use !=", c.pos)
            return None
        a = expr_poly(c.left, self.entry | extra, self.reporter(what))
        b = expr_poly(c.right, self.entry | extra, self.reporter(what))
        if a is None or b is None:
            return None
        return LinConstraint.compare(a, c.rel, b)

    def clause_type(self, t: TypeRef, pos: Pos) -> str | None:
        if t.is_array:
            if t.name in self.top.classes:
                return t.key()
            self.error("unknown-type", f"unknown element class {t.name}", pos)
            return None
        if t.name in self.top.classes or t.name == OBJECT_KEY:
            return t.key()
        self.error("unknown-type", f"{t} is not a class", pos)
        return None

    def extract_contract(self) -> None:
        in_prefix = True
        requires: list[LinConstraint] = []
        for s in self.m.body:
            if isinstance(s, EnsureStmt):
                continue  # instrumentation output, contract-neutral
            if not isinstance(s, CONTRACT_STMTS):
                in_prefix = False
                continue
            if not in_prefix:
                self.error("contract-not-at-entry",
                           "contract clauses must precede the first statement", s.pos)
                continue
            if isinstance(s, RequiresStmt):
                for c in s.constraints:
                    lc = self.constraint_of(c, set(), "requires")
                    if lc is not None:
                        requires.append(lc)
            elif isinstance(s, MemReqStmt):
                key = self.clause_type(s.class_ref, s.pos)
                e = expr_bound(s.expr, self.entry, self.reporter("memreq"))
                if key is None or e is None:
                    continue
                if key in self.contract.mem_req:
                    self.error("duplicate-clause", f"memreq<{key}> given twice", s.pos)
                self.contract.mem_req[key] = e
            elif isinstance(s, EscStmt):
                key = self.clause_type(s.class_ref, s.pos)
                e = expr_bound(s.expr, self.entry, self.reporter("esc"))
                if key is None or e is None:
                    continue
                if s.tag.kind == "return" and not (self.m.is_ctor
                                                   or self.top.is_reference(self.m.return_type)):
                    self.error("esc-return-void",
                               "esc on return needs a reference return type", s.pos)
                if (s.tag, key) in self.contract.esc:
                    self.error("duplicate-clause", f"esc<{key}> on {s.tag} given twice", s.pos)
                self.contract.esc[(s.tag, key)] = e
            elif isinstance(s, BindEscStmt):
                if s.tag.kind != "user":
                    self.error("bad-bind-target", "only named tags can be bound", s.pos)
                    continue
                if s.tag in self.contract.bindings:
                    self.error("duplicate-clause", f"tag {s.tag} bound twice", s.pos)
                self.check_bind_path(s)
                self.contract.bindings[s.tag] = s.path
        self.contract.requires = tuple(requires)
        for (tag, key) in self.contract.esc:
            if tag.kind == "user" and tag not in self.contract.bindings:
                self.error("unknown-tag-binding",
                           f"tag {tag} has no bind_esc", self.m.pos)

    def check_bind_path(self, s: BindEscStmt) -> None:
        path = s.path
        if path.root == "this":
            t: TypeRef | None = TypeRef(self.cls.name)
        elif path.root == "return":
            t = self.m.return_type if not self.m.is_ctor else TypeRef(self.cls.name)
        else:
            t = self.vars.get(path.root)
            if t is None or path.root not in {p.name for p in self.m.params}:
                self.error("bad-bind-path", f"{path} must start at a parameter, this, or return",
                           s.pos)
                return
        for f in path.fields:
            if t is None or t.is_array or t.name not in self.top.classes:
                self.error("bad-bind-path", f"{path}: {t} has no fields", s.pos)
                return
            fd = self.top.fields[t.name].get(f)
            if fd is None:
                self.error("bad-bind-path", f"{path}: {t.name} has no field {f}", s.pos)
                return
            t = fd.decl_type
        if t is not None and not self.top.is_reference(t):
            self.error("bad-bind-path", f"{path} does not name a heap object", s.pos)

    # -- statement resolution ----------------------------------------------------

    def resolve_block(self, body: list[Stmt], enclosing_loops: tuple[str, ...],
                      nested: bool = True) -> None:
        returned = False
        for s in body:
            if returned:
                self.warn("dead-code", "statement is unreachable", s.pos)
                returned = False  # one warning per dead region is enough
            self.resolve_stmt(s, enclosing_loops, nested)
            if isinstance(s, ReturnStmt):
                returned = True

    def resolve_stmt(self, s: Stmt, loops: tuple[str, ...], nested: bool = True) -> None:
        """Resolve one statement by its reader in `_STATEMENTS`.  An `if` is
        read in place, so that a nest of them costs two frames per level."""
        if type(s) is IfStmt:
            self.typeof(s.cond)
            self.resolve_block(s.then_body, loops)
            self.resolve_block(s.else_body, loops)
            return
        reader = _STATEMENTS.get(type(s))
        if reader is not None:
            reader(self, s, loops, nested)

    def resolve_local(self, s: LocalDecl, loops: tuple[str, ...], nested: bool) -> None:
        if s.init is not None:
            self.typeof(s.init)
        self.assigned.add(s.name)

    def resolve_assign(self, s: Assign | AugAssign, loops: tuple[str, ...],
                       nested: bool) -> None:
        self.check_lvalue(s.target, loops)
        self.typeof(s.value)

    def resolve_return(self, s: ReturnStmt, loops: tuple[str, ...], nested: bool) -> None:
        if s.value is not None:
            if self.m.is_ctor or self.m.return_type.key() == "void":
                self.error("bad-return", "this method cannot return a value", s.pos)
            self.typeof(s.value)
        elif not self.m.is_ctor and self.m.return_type.key() != "void":
            self.error("bad-return", "a value must be returned", s.pos)

    def resolve_ensure(self, s: EnsureStmt, loops: tuple[str, ...], nested: bool) -> None:
        self.typeof(s.cond)

    def misplaced_clause(self, s: Stmt, loops: tuple[str, ...], nested: bool) -> None:
        if nested:  # top-level occurrences were consumed by extract_contract
            self.error("contract-not-at-entry",
                       "contract clauses must precede the first statement", s.pos)

    def misplaced_annotation(self, s: Stmt, loops: tuple[str, ...], nested: bool) -> None:
        self.error("misplaced-annotation",
                   "this annotation does not precede an allocation or call", s.pos)

    def misplaced_space(self, s: Stmt, loops: tuple[str, ...], nested: bool) -> None:
        self.error("misplaced-annotation",
                   "iteration_space must be the first statement of a loop body", s.pos)

    def check_tag_use(self, tag: Tag, pos: Pos, where: str) -> None:
        if tag.kind == "return":
            if self.m.is_ctor:
                self.error("bad-tag", f"{where}: a constructor has no return value", pos)
            elif not self.top.is_reference(self.m.return_type):
                self.error("bad-tag", f"{where}: return type is not a reference", pos)
        elif tag.kind == "user" and tag not in self.contract.bindings:
            self.error("unknown-tag-binding", f"{where}: tag {tag} has no bind_esc", pos)

    def resolve_new(self, s: NewStmt, loops: tuple[str, ...], nested: bool) -> None:
        self.new_ordinal += 1
        s.site = f"{self.m.qname}#{self.new_ordinal}"
        if s.class_ref.name not in self.top.classes:
            self.error("unknown-type", f"cannot allocate unknown class {s.class_ref.name}", s.pos)
            return
        if s.class_ref.is_array:
            self.typeof(s.length)
        else:
            ctor = s.callee = self.top.classes[s.class_ref.name].ctor()
            want = len(ctor.params) if ctor else 0
            if len(s.args) != want:
                self.error("ctor-arity",
                           f"{s.class_ref.name} constructor takes {want} argument(s), "
                           f"got {len(s.args)}", s.pos)
            for a, p in zip(s.args, ctor.params if ctor else ()):
                self.check_arg(a, p, f"{s.class_ref.name} constructor", s.pos)
            for a in s.args[want:]:
                self.typeof(a)
        if s.dest_esc is not None:
            self.check_tag_use(s.dest_esc, s.pos, "dest_esc")
        if s.dest_esc is not None and s.dest_local:
            self.error("bad-tag", "dest_esc and dest_local on the same allocation", s.pos)
        for dst, _src in s.add_esc:
            self.check_tag_use(dst, s.pos, "add_esc")
        self.bind_target(s.target, s.decl_type, loops)

    def resolve_call(self, s: CallStmt, loops: tuple[str, ...], nested: bool) -> None:
        self.call_ordinal += 1
        s.site = f"{self.m.qname}@{self.call_ordinal}"
        if s.receiver is None:
            cls_name = self.cls.name
        else:
            rt = self.typeof(s.receiver)
            if rt is None:
                return
            if rt.is_array or rt.name not in self.top.classes:
                self.error("not-a-class", f"cannot call a method on {rt}", s.pos)
                return
            cls_name = rt.name
        callee = self.top.lookup_method(cls_name, s.method)
        if callee is None or callee.is_ctor:
            self.error("unknown-method", f"{cls_name} has no method {s.method}", s.pos)
            return
        s.callee = callee
        if len(s.args) != len(callee.params):
            self.error("arity", f"{callee.qname} takes {len(callee.params)} argument(s), "
                       f"got {len(s.args)}", s.pos)
        for a, p in zip(s.args, callee.params):
            if isinstance(a, OutArg) != p.is_out:
                self.error("out-mismatch",
                           f"argument {p.name} of {callee.qname} must "
                           f"{'be' if p.is_out else 'not be'} passed with out", s.pos)
            if isinstance(a, OutArg):
                self.check_lvalue(a.target, loops)
            else:
                self.check_arg(a, p, callee.qname, s.pos)
        for a in s.args[len(callee.params):]:
            self.typeof(a.target if isinstance(a, OutArg) else a)
        for dst, _src in s.add_esc:
            self.check_tag_use(dst, s.pos, "add_esc")
        if s.target is not None:
            if callee.return_type.key() == "void":
                self.error("bad-return", f"{callee.qname} returns nothing", s.pos)
            self.bind_target(s.target, s.decl_type, loops)

    def check_arg(self, a: Expr, p: Param, callee: str, pos: Pos) -> None:
        """An in-argument has its parameter's type; null is admitted only
        by a class or array parameter."""
        t = self.typeof(a)
        while isinstance(a, ParenExpr):
            a = a.inner
        if (not self.top.is_reference(p.decl_type) if isinstance(a, NullLit)
                else t is not None and t.key() != p.decl_type.key()):
            self.error("bad-argument", f"argument {p.name} of {callee} must be "
                       f"{p.decl_type}, got {t or 'null'}", pos)

    def bind_target(self, target: Expr, decl_type: TypeRef | None,
                    loops: tuple[str, ...]) -> None:
        if decl_type is None:
            self.check_lvalue(target, loops)
        elif isinstance(target, VarRef):
            self.assigned.add(target.name)

    def resolve_for(self, s: ForStmt, loops: tuple[str, ...], nested: bool) -> None:
        self.typeof(s.lo)
        self.typeof(s.hi)
        # a header that is not entry-constant is allowed; it just gives the
        # loop no range.  It may read the index of an enclosing loop that has
        # a range, which bounds it, but not one that it shadows.  A lower
        # bound with a negative coefficient gives no range either, so an
        # index with a range is nonnegative whenever its body runs.
        admissible = self.unassigned | (self.ranged - {s.var})
        lo, hi = expr_poly(s.lo, admissible), expr_poly(s.hi, admissible)
        s.resolved_range = None if lo is None or hi is None or not lo.coeffs_nonneg() \
            else (lo, hi)
        inner = loops + (s.var,)
        if s.space is not None:
            cons = [self.constraint_of(c, set(inner), "iteration_space") for c in s.space]
            s.resolved_space = tuple(lc for lc in cons if lc is not None)
            if s.var not in {v for lc in s.resolved_space for v in lc.variables()}:
                self.error("bad-contract-expr",
                           f"iteration_space must constrain {s.var}", s.pos)
        outer = self.ranged
        self.ranged = outer - {s.var} | ({s.var} if s.resolved_range else set())
        self.resolve_block(s.body, inner)
        self.ranged = outer

    # -- expressions ---------------------------------------------------------

    def check_lvalue(self, e: Expr, loops: tuple[str, ...]) -> None:
        if isinstance(e, VarRef):
            if e.name in loops:
                self.error("loop-var-assigned", f"loop variable {e.name} may not be assigned",
                           e.pos)
            if e.name not in self.vars:
                self.error("unknown-name", f"unknown name {e.name}", e.pos)
            self.assigned.add(e.name)
            return
        if isinstance(e, (FieldRef, IndexRef)):
            self.typeof(e)
            return
        self.error("bad-lvalue", "cannot assign to this expression", e.pos)

    def typeof(self, e: Expr) -> TypeRef | None:
        """The type of e, None when it has none (null) or is in error.  Each
        node type has its reader in `_TYPES`; a reader calls those of the
        parts directly, so that a nest costs one frame per level."""
        return _TYPES[type(e)](self, e)

    def type_var(self, e: VarRef) -> TypeRef | None:
        t = self.vars.get(e.name)
        if t is None:
            self.error("unknown-name", f"unknown name {e.name}", e.pos)
        return t

    def type_this(self, e: ThisRef) -> TypeRef:
        return TypeRef(self.cls.name)

    def type_field(self, e: FieldRef) -> TypeRef | None:
        base = e.base
        bt = _TYPES[type(base)](self, base)
        if bt is None:
            return None
        if bt.is_array or bt.name not in self.top.classes:
            self.error("unknown-field", f"{bt} has no field {e.field}", e.pos)
            return None
        fd = self.top.fields[bt.name].get(e.field)
        if fd is None:
            self.error("unknown-field", f"{bt.name} has no field {e.field}", e.pos)
            return None
        return fd.decl_type

    def type_length(self, e: LengthRef) -> TypeRef:
        base = e.base
        bt = _TYPES[type(base)](self, base)
        if bt is not None and not bt.is_array and bt.key() != "string":
            self.error("not-an-array", ".length needs an array or string", e.pos)
        return T_INT

    def type_index(self, e: IndexRef) -> TypeRef | None:
        base, index = e.base, e.index
        bt = _TYPES[type(base)](self, base)
        _TYPES[type(index)](self, index)
        if bt is None:
            return None
        if not bt.is_array:
            self.error("not-an-array", f"cannot index {bt}", e.pos)
            return None
        return bt.element()

    def type_unary(self, e: Unary) -> TypeRef:
        operand = e.operand
        _TYPES[type(operand)](self, operand)
        return _T_BOOL if e.op == "!" else T_INT

    def type_binary(self, e: Binary) -> TypeRef:
        left, right = e.left, e.right
        _TYPES[type(left)](self, left)
        _TYPES[type(right)](self, right)
        return _T_BOOL if BINARY_PREC[e.op] <= _RELATION_PREC else T_INT

    def type_max(self, e: MaxExpr) -> TypeRef:
        left, right = e.left, e.right
        _TYPES[type(left)](self, left)
        _TYPES[type(right)](self, right)
        return T_INT

    def type_paren(self, e: ParenExpr) -> TypeRef | None:
        inner = e.inner
        return _TYPES[type(inner)](self, inner)

    # -- control flow ----------------------------------------------------------

    def always_returns(self, body: list[Stmt]) -> bool:
        for s in body:
            if isinstance(s, ReturnStmt):
                return True
            if isinstance(s, IfStmt) and s.else_body:
                if self.always_returns(s.then_body) and self.always_returns(s.else_body):
                    return True
        return False


# The reader of each statement type but `if`, and the type of each
# expression type, as `_MethodResolver.resolve_stmt` and `typeof` read them.
_STATEMENTS = {
    LocalDecl: _MethodResolver.resolve_local,
    Assign: _MethodResolver.resolve_assign,
    AugAssign: _MethodResolver.resolve_assign,
    NewStmt: _MethodResolver.resolve_new,
    CallStmt: _MethodResolver.resolve_call,
    ReturnStmt: _MethodResolver.resolve_return,
    ForStmt: _MethodResolver.resolve_for,
    EnsureStmt: _MethodResolver.resolve_ensure,
    **dict.fromkeys(CONTRACT_STMTS, _MethodResolver.misplaced_clause),
    **dict.fromkeys(ANNOTATION_STMTS, _MethodResolver.misplaced_annotation),
    IterationSpaceStmt: _MethodResolver.misplaced_space,
}
_TYPES = {
    IntLit: lambda r, e: T_INT,
    BoolLit: lambda r, e: _T_BOOL,
    StrLit: lambda r, e: _T_STRING,
    NullLit: lambda r, e: None,
    VarRef: _MethodResolver.type_var,
    ThisRef: _MethodResolver.type_this,
    FieldRef: _MethodResolver.type_field,
    LengthRef: _MethodResolver.type_length,
    IndexRef: _MethodResolver.type_index,
    Unary: _MethodResolver.type_unary,
    Binary: _MethodResolver.type_binary,
    MaxExpr: _MethodResolver.type_max,
    ParenExpr: _MethodResolver.type_paren,
}


def resolve(program: Program) -> list[Diagnostic]:
    """Resolve names, assign sites, and build contracts.

    Mutates the program in place.  Raises ResolveFailure when any error
    diagnostic was produced; returns the (possibly warning-only) list
    otherwise.
    """
    return _Resolver(program).run()
