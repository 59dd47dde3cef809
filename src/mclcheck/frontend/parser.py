"""Recursive-descent parser for the contract mini-language.

Binary operators are read by precedence climbing over `syntax.BINARY_PREC`,
and the keyword statements from `syntax.SHAPES`, the table of their shapes
that the printer writes too: each field kind there names a reader here.

Escape annotations (dest_esc, dest_local, add_esc) are written on the line
before the allocation or call they govern; the parser attaches them to that
statement.  Annotations left dangling survive as standalone nodes so the
placement linter can report them instead of losing them.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, ParseFailure, SEV_ERROR
from .lexer import Token, tokenize
from .syntax import (
    ANNOTATION_STMTS, AddEscStmt, Assign, AugAssign, Binary, BINARY_PREC,
    BoolLit, CallStmt, ClassDecl, Cmp, DestEscStmt, DestLocalStmt, Expr,
    FieldDecl, FieldRef, ForStmt, IfStmt, IndexRef, IntLit, IterationSpaceStmt,
    LengthRef, LocalDecl, MaxExpr, MethodDecl, NewStmt, NullLit, OutArg, Param,
    ParenExpr, PathExpr, Pos, PRIMITIVES, Program, RELATIONS, ReturnStmt,
    SHAPES, StrLit, Stmt, Tag, ThisRef, TypeRef, Unary, VarRef,
)

_VALUE_TYPES = PRIMITIVES - {"void"}  # the primitive types a value can have
_ARITH = BINARY_PREC["+"]  # the loosest level of an integer expression
_TIGHTEST = max(BINARY_PREC.values())


class _Parser:
    def __init__(self, tokens: list[Token], file: str):
        self.toks = tokens + tokens[-1:] * 3  # eof stays in reach of peek(3)
        self.i = 0
        self.file = file

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

    def at(self, kind: str, value: str | None = None, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == kind and (value is None or t.value == value)

    def at_kw(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "keyword" and t.value in words

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value or kind
            self.fail(f"expected {want!r}, found {t.value!r}", t)
        return self.next()

    def pos(self, t: Token | None = None) -> Pos:
        t = t or self.peek()
        return Pos(t.line, t.col)

    def fail(self, msg: str, tok: Token | None = None):
        t = tok or self.peek()
        raise ParseFailure([Diagnostic(SEV_ERROR, "SyntaxError", msg, self.file, t.line, t.col)])

    # -- declarations ----------------------------------------------------------

    def program(self) -> Program:
        classes = []
        while not self.at("eof"):
            classes.append(self.class_decl())
        return Program(classes, source_name=self.file)

    def class_decl(self) -> ClassDecl:
        start = self.expect("keyword", "class")
        name = self.expect("ident").value
        self.expect("punct", "{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        while not self.at("punct", "}"):
            # Constructor: class name directly followed by a parameter list.
            if self.at("ident", name) and self.at("punct", "(", ahead=1):
                t = self.next()
                m = self.method_rest(TypeRef("void"), name, self.pos(t))
                m.is_ctor = True
                m.cls = name
                methods.append(m)
                continue
            t0 = self.peek()
            decl_type = self.parse_type()
            ident = self.expect("ident")
            if self.at("punct", "("):
                m = self.method_rest(decl_type, ident.value, Pos(t0.line, t0.col))
                m.cls = name
                methods.append(m)
            else:
                self.expect("punct", ";")
                fields.append(FieldDecl(decl_type, ident.value, pos=Pos(t0.line, t0.col)))
        self.expect("punct", "}")
        return ClassDecl(name, fields, methods, pos=self.pos(start))

    def parse_type(self) -> TypeRef:
        t = self.peek()
        if t.kind == "keyword" and t.value in PRIMITIVES:
            self.next()
            base = TypeRef(t.value)
        elif t.kind == "ident":
            self.next()
            base = TypeRef(t.value)
        else:
            self.fail(f"expected a type, found {t.value!r}")
        if self.at("punct", "[") and self.at("punct", "]", ahead=1):
            self.next()
            self.next()
            return TypeRef(base.name, is_array=True)
        return base

    def method_rest(self, return_type: TypeRef, name: str, pos: Pos) -> MethodDecl:
        self.expect("punct", "(")
        params: list[Param] = []
        while not self.at("punct", ")"):
            if params:
                self.expect("punct", ",")
            is_out = False
            if self.at_kw("out"):
                self.next()
                is_out = True
            ptype = self.parse_type()
            pname = self.expect("ident").value
            params.append(Param(ptype, pname, is_out))
        self.expect("punct", ")")
        body = self.block()
        return MethodDecl(name, params, return_type, body, pos=pos)

    # -- statements ------------------------------------------------------------

    def block(self) -> list[Stmt]:
        self.expect("punct", "{")
        stmts: list[Stmt] = []
        pending: list[Stmt] = []  # escape annotations not yet attached
        while not self.at("punct", "}"):
            stmt = self.statement()
            if isinstance(stmt, ANNOTATION_STMTS):
                pending.append(stmt)
                continue
            # the next allocation takes the annotations, all but a second
            # dest_esc; a call takes only add_esc; the rest stay standalone
            new = isinstance(stmt, NewStmt)
            for a in pending:
                if new and isinstance(a, DestLocalStmt):
                    stmt.dest_local = True
                elif new and isinstance(a, DestEscStmt) and stmt.dest_esc is None:
                    stmt.dest_esc = a.tag
                elif isinstance(a, AddEscStmt) and isinstance(stmt, (NewStmt, CallStmt)):
                    stmt.add_esc.append((a.dst, a.src))
                else:
                    stmts.append(a)
            pending.clear()
            stmts.append(stmt)
        self.expect("punct", "}")
        return stmts + pending

    def statement(self) -> Stmt:
        t = self.peek()
        if t.kind == "keyword" and t.value in SHAPES:
            node, shape = SHAPES[t.value]
            self.next()
            parts = []
            for word in shape.split():
                if word in _READERS:
                    parts.append(_READERS[word](self))
                else:
                    self.expect("punct", word)
            return node(*parts, pos=self.pos(t))
        if self.at_kw("return"):
            self.next()
            value = None
            if not self.at("punct", ";"):
                value = self.binary()
            self.expect("punct", ";")
            return ReturnStmt(value, pos=self.pos(t))
        if self.at_kw("if"):
            self.next()
            self.expect("punct", "(")
            cond = self.binary()
            self.expect("punct", ")")
            then_body = self.block()
            else_body: list[Stmt] = []
            if self.at_kw("else"):
                self.next()
                else_body = self.block()
            return IfStmt(cond, then_body, else_body, pos=self.pos(t))
        if self.at_kw("for"):
            return self.for_stmt()
        if self.at_kw("while"):
            self.fail("while loops are not supported; use a counted for loop")
        if self.at_kw("new"):
            self.fail("an allocation must be assigned to a target")
        if self.at_kw(*_VALUE_TYPES):
            return self.decl_stmt()
        if self.at("ident"):
            # ident ident  or  ident[] ident  opens a declaration
            if self.at("ident", ahead=1):
                return self.decl_stmt()
            if (self.at("punct", "[", ahead=1) and self.at("punct", "]", ahead=2)
                    and self.at("ident", ahead=3)):
                return self.decl_stmt()
            return self.lvalue_stmt()
        if self.at_kw("this"):
            return self.lvalue_stmt()
        self.fail(f"unexpected token {t.value!r}")

    def for_stmt(self) -> ForStmt:
        t = self.expect("keyword", "for")
        self.expect("punct", "(")
        var = self.expect("ident").value
        self.expect("punct", "=")
        lo = self.binary(_ARITH)
        self.expect("punct", "..")
        hi = self.binary(_ARITH)
        self.expect("punct", ")")
        body = self.block()
        space = None
        if body and isinstance(body[0], IterationSpaceStmt):
            space = body.pop(0).constraints
        return ForStmt(var, lo, hi, body, space, pos=self.pos(t))

    def decl_stmt(self) -> Stmt:
        t = self.peek()
        decl_type = self.parse_type()
        name = self.expect("ident").value
        pos = Pos(t.line, t.col)
        if self.at("punct", ";"):
            self.next()
            return LocalDecl(decl_type, name, None, pos=pos)
        self.expect("punct", "=")
        return self.rhs_stmt(VarRef(name, pos=pos), decl_type, pos)

    def lvalue_stmt(self) -> Stmt:
        t = self.peek()
        pos = self.pos(t)
        chain = self.postfix_chain()
        if self.at("punct", "("):
            recv, method = self.split_callee(chain)
            return self.call_rest(None, None, recv, method, pos)
        if self.at("punct", "+="):
            self.next()
            value = self.binary()
            self.expect("punct", ";")
            return AugAssign(chain, value, pos=pos)
        self.expect("punct", "=")
        return self.rhs_stmt(chain, None, pos)

    def rhs_stmt(self, target: Expr, decl_type: TypeRef | None, pos: Pos) -> Stmt:
        if self.at_kw("new"):
            return self.new_rest(target, decl_type, pos)
        # A call if the value looks like  chain '('
        mark = self.i
        if self.at("ident") or self.at_kw("this"):
            chain = self.postfix_chain()
            if self.at("punct", "("):
                recv, method = self.split_callee(chain)
                return self.call_rest(target, decl_type, recv, method, pos)
            self.i = mark
        value = self.binary()
        self.expect("punct", ";")
        if decl_type is not None:
            return LocalDecl(decl_type, target.name, value, pos=pos)  # type: ignore[attr-defined]
        return Assign(target, value, pos=pos)

    def new_rest(self, target: Expr, decl_type: TypeRef | None, pos: Pos) -> NewStmt:
        self.expect("keyword", "new")
        t = self.peek()
        if t.kind == "keyword" and t.value in _VALUE_TYPES:
            self.fail("allocation requires a class type")
        cls_name = self.expect("ident").value
        if self.at("punct", "["):
            self.next()
            length = self.binary(_ARITH)
            self.expect("punct", "]")
            self.expect("punct", ";")
            return NewStmt(target, decl_type, TypeRef(cls_name, is_array=True), [], length, pos=pos)
        self.expect("punct", "(")
        args: list[Expr] = []
        while not self.at("punct", ")"):
            if args:
                self.expect("punct", ",")
            args.append(self.binary())
        self.expect("punct", ")")
        self.expect("punct", ";")
        return NewStmt(target, decl_type, TypeRef(cls_name), args, pos=pos)

    def call_rest(self, target, decl_type, receiver, method: str, pos: Pos) -> CallStmt:
        self.expect("punct", "(")
        args: list = []
        while not self.at("punct", ")"):
            if args:
                self.expect("punct", ",")
            if self.at_kw("out"):
                t = self.next()
                args.append(OutArg(self.postfix_chain(), pos=self.pos(t)))
            else:
                args.append(self.binary())
        self.expect("punct", ")")
        self.expect("punct", ";")
        return CallStmt(target, decl_type, receiver, method, args, pos=pos)

    def split_callee(self, chain: Expr) -> tuple[Expr | None, str]:
        if isinstance(chain, FieldRef):
            return chain.base, chain.field
        if isinstance(chain, VarRef):
            return None, chain.name
        self.fail("call target must be a method name")

    # -- contract fragments ------------------------------------------------------

    def parse_tag(self) -> Tag:
        t = self.peek()
        if self.at_kw("return"):
            self.next()
            return Tag.ret()
        if self.at_kw("this"):
            self.next()
            return Tag.this()
        if t.kind == "ident":
            self.next()
            return Tag.user(t.value)
        self.fail("expected an escape tag")

    def parse_path(self) -> PathExpr:
        t = self.peek()
        if self.at_kw("this"):
            self.next()
            root = "this"
        elif self.at_kw("return"):
            self.next()
            root = "return"
        elif t.kind == "ident":
            self.next()
            root = t.value
        else:
            self.fail("expected a path root")
        fields = []
        while self.at("punct", "."):
            self.next()
            fields.append(self.expect("ident").value)
        return PathExpr(root, tuple(fields))

    def cmp_list(self) -> list[Cmp]:
        out = [self.one_cmp()]
        while self.at("punct", "&&"):
            self.next()
            out.append(self.one_cmp())
        return out

    def one_cmp(self) -> Cmp:
        left = self.binary(_ARITH)
        t = self.peek()
        if t.kind != "punct" or t.value not in RELATIONS:
            self.fail("expected a comparison operator")
        self.next()
        right = self.binary(_ARITH)
        return Cmp(left, t.value, right, pos=self.pos(t))

    # -- expressions ------------------------------------------------------------

    def binary(self, lowest: int = 1) -> Expr:
        """Precedence climbing (Pratt, POPL 1973) over the operators of level
        `lowest` and tighter, grouped to the left.  A right operand holds only
        tighter operators, so the next one is at most as tight as the last;
        after a relation it must be looser still, so relations never chain."""
        e = self.unary_expr()
        limit = _TIGHTEST
        while True:
            t = self.peek()
            prec = BINARY_PREC.get(t.value, 0) if t.kind == "punct" else 0
            if not lowest <= prec <= limit:
                return e
            self.next()
            e = Binary(t.value, e, self.binary(prec + 1), pos=self.pos(t))
            limit = prec - 1 if t.value in RELATIONS else prec

    def unary_expr(self) -> Expr:
        if self.at("punct", "-") or self.at("punct", "!"):
            t = self.next()
            return Unary(t.value, self.unary_expr(), pos=self.pos(t))
        return self.postfix_chain()

    def postfix_chain(self) -> Expr:
        e = self.primary()
        while True:
            if self.at("punct", "."):
                if self.at("ident", "length", ahead=1):
                    self.next()
                    t = self.next()
                    e = LengthRef(e, pos=self.pos(t))
                    continue
                self.next()
                f = self.expect("ident")
                e = FieldRef(e, f.value, pos=Pos(f.line, f.col))
            elif self.at("punct", "["):
                t = self.next()
                idx = self.binary(_ARITH)
                self.expect("punct", "]")
                e = IndexRef(e, idx, pos=self.pos(t))
            else:
                return e

    def primary(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return IntLit(int(t.value), pos=self.pos(t))
        if t.kind == "string":
            self.next()
            return StrLit(t.value, pos=self.pos(t))
        if self.at_kw("true") or self.at_kw("false"):
            self.next()
            return BoolLit(t.value == "true", pos=self.pos(t))
        if self.at_kw("null"):
            self.next()
            return NullLit(pos=self.pos(t))
        if self.at_kw("this"):
            self.next()
            return ThisRef(pos=self.pos(t))
        if self.at_kw("max"):
            self.next()
            self.expect("punct", "(")
            a = self.binary()
            self.expect("punct", ",")
            b = self.binary()
            self.expect("punct", ")")
            return MaxExpr(a, b, pos=self.pos(t))
        if t.kind == "ident":
            self.next()
            return VarRef(t.value, pos=self.pos(t))
        if self.at("punct", "("):
            self.next()
            inner = self.binary()
            self.expect("punct", ")")
            return ParenExpr(inner, pos=self.pos(t))
        self.fail(f"unexpected token {t.value!r} in expression")


# The reader of each field kind of a keyword statement's shape.
_READERS = {"tag": _Parser.parse_tag, "type": _Parser.parse_type,
            "expr": _Parser.binary, "cmps": _Parser.cmp_list,
            "path": _Parser.parse_path}


def parse(source: str, file: str = "<mcl>") -> Program:
    """Parse source text into an unresolved Program.

    Raises ParseFailure carrying diagnostics on the first syntax error.
    """
    parser = _Parser(tokenize(source, file), file)
    try:
        return parser.program()
    except RecursionError:
        parser.fail("nesting is too deep to parse")
