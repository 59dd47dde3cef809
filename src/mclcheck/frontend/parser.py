"""Recursive-descent parser for the contract mini-language.

The parser reads the lexer's parallel lists of token kinds, values, lines
and columns (`lexer.scan`), padded once with eof so that a look three
tokens ahead stays in range, and indexes them directly.  A punctuator or
keyword is known by its value alone: no token of another kind has one.

`statement()` reads a keyword statement of `syntax.SHAPES`, a `return` and
an `if` in place and dispatches on any other keyword through `_STATEMENTS`;
`primary()` takes the node a keyword or parenthesis opens from
`_PRIMARIES`.  Binary operators are read by precedence climbing over
`syntax.BINARY_PREC`.  `SHAPES` is the table of the keyword statements'
shapes that the printer writes too: each field kind there names a reader
here, and each shape is split into its readers once, in `_SHAPES`.

Nesting recurses, so the interpreter's stack bounds it, and the token at
which a nest too deep to parse is reported depends on the frames each
level takes: two per `if`, three per `for`, four per parenthesis, and at
each token the frames of the calls made before it is stepped over.  So a
name, a literal keyword, a parenthesis, a `max` and a unary operator make
their node before they step over their token, and set its position after.

Escape annotations (dest_esc, dest_local, add_esc) are written on the line
before the allocation or call they govern; the parser attaches them to that
statement.  Annotations left dangling survive as standalone nodes so the
placement linter can report them instead of losing them.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, ParseFailure, SEV_ERROR
from .lexer import scan, unquote
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
_RETURN, _THIS = Tag.ret(), Tag.this()


class _Parser:
    def __init__(self, source: str, file: str):
        kinds, values, lines, cols = scan(source, file)
        # eof stays in reach of a look three tokens ahead
        self.kinds = kinds + kinds[-1:] * 3
        self.values = values + values[-1:] * 3
        self.lines = lines + lines[-1:] * 3
        self.cols = cols + cols[-1:] * 3
        self.i = 0
        self.file = file

    # -- token plumbing ------------------------------------------------------

    def pos(self, i: int) -> Pos:
        return Pos(self.lines[i], self.cols[i])

    def shown(self, i: int) -> str:
        """Token i's value as a diagnostic quotes it."""
        value = self.values[i]
        return unquote(value) if self.kinds[i] == "string" else value

    def fail(self, msg: str):
        """Raise a syntax error at the current token."""
        i = self.i
        raise ParseFailure([Diagnostic(SEV_ERROR, "SyntaxError", msg, self.file,
                                       self.lines[i], self.cols[i])])

    def expect(self, value: str) -> int:
        """Step over the punctuator or keyword `value`; gives its index."""
        i = self.i
        if self.values[i] != value:
            self.fail(f"expected {value!r}, found {self.shown(i)!r}")
        self.i = i + 1
        return i

    def ident(self) -> str:
        i = self.i
        if self.kinds[i] != "ident":
            self.fail(f"expected 'ident', found {self.shown(i)!r}")
        self.i = i + 1
        return self.values[i]

    # -- declarations ----------------------------------------------------------

    def program(self) -> Program:
        classes = []
        while self.kinds[self.i] != "eof":
            classes.append(self.class_decl())
        return Program(classes, source_name=self.file)

    def class_decl(self) -> ClassDecl:
        start = self.expect("class")
        name = self.ident()
        self.expect("{")
        fields: list[FieldDecl] = []
        methods: list[MethodDecl] = []
        values = self.values
        while values[self.i] != "}":
            i = self.i
            # Constructor: class name directly followed by a parameter list.
            if values[i] == name and values[i + 1] == "(":
                self.i = i + 1
                m = self.method_rest(TypeRef("void"), name, self.pos(i))
                m.is_ctor = True
                m.cls = name
                methods.append(m)
                continue
            decl_type = self.parse_type()
            ident = self.ident()
            if values[self.i] == "(":
                m = self.method_rest(decl_type, ident, self.pos(i))
                m.cls = name
                methods.append(m)
            else:
                self.expect(";")
                fields.append(FieldDecl(decl_type, ident, pos=self.pos(i)))
        self.i += 1
        return ClassDecl(name, fields, methods, pos=self.pos(start))

    def parse_type(self) -> TypeRef:
        i = self.i
        value = self.values[i]
        if self.kinds[i] != "ident" and value not in PRIMITIVES:
            self.fail(f"expected a type, found {self.shown(i)!r}")
        if self.values[i + 1] == "[" and self.values[i + 2] == "]":
            self.i = i + 3
            return TypeRef(value, is_array=True)
        self.i = i + 1
        return TypeRef(value)

    def method_rest(self, return_type: TypeRef, name: str, pos: Pos) -> MethodDecl:
        self.expect("(")
        params: list[Param] = []
        values = self.values
        while values[self.i] != ")":
            if params:
                self.expect(",")
            is_out = values[self.i] == "out"
            self.i += is_out
            ptype = self.parse_type()
            params.append(Param(ptype, self.ident(), is_out))
        self.i += 1
        body = self.block()
        return MethodDecl(name, params, return_type, body, pos=pos)

    # -- statements ------------------------------------------------------------

    def block(self) -> list[Stmt]:
        self.expect("{")
        stmts: list[Stmt] = []
        pending: list[Stmt] = []  # escape annotations not yet attached
        values = self.values
        while values[self.i] != "}":
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
        self.i += 1
        return stmts + pending

    def statement(self) -> Stmt:
        """One statement.  A keyword statement of `syntax.SHAPES`, a `return`
        and an `if` are read in place, which keeps the frames they nest in
        (see the module docstring); any other keyword has its reader in
        `_STATEMENTS`."""
        i = self.i
        values = self.values
        value = values[i]
        shape = _SHAPES.get(value)
        if shape is not None:
            node, steps = shape
            self.i = i + 1
            parts = []
            for reader, word in steps:
                if reader is None:
                    self.expect(word)
                else:
                    parts.append(reader(self))
            return node(*parts, pos=self.pos(i))
        if value == "return":
            self.i = i + 1
            result = None
            if values[self.i] != ";":
                result = self.binary()
            self.expect(";")
            return ReturnStmt(result, pos=self.pos(i))
        if value == "if":
            self.i = i + 1
            self.expect("(")
            cond = self.binary()
            self.expect(")")
            then_body = self.block()
            else_body: list[Stmt] = []
            if values[self.i] == "else":
                self.i += 1
                else_body = self.block()
            return IfStmt(cond, then_body, else_body, pos=self.pos(i))
        reader = _STATEMENTS.get(value)
        if reader is not None:
            return reader(self)
        if self.kinds[i] == "ident":
            # ident ident  or  ident[] ident  opens a declaration
            kinds = self.kinds
            if kinds[i + 1] == "ident" or (values[i + 1] == "[" and values[i + 2] == "]"
                                           and kinds[i + 3] == "ident"):
                return self.decl_stmt()
            return self.lvalue_stmt()
        self.fail(f"unexpected token {self.shown(i)!r}")

    def for_stmt(self) -> ForStmt:
        t = self.expect("for")
        self.expect("(")
        var = self.ident()
        self.expect("=")
        lo = self.binary(_ARITH)
        self.expect("..")
        hi = self.binary(_ARITH)
        self.expect(")")
        body = self.block()
        space = None
        if body and isinstance(body[0], IterationSpaceStmt):
            space = body.pop(0).constraints
        return ForStmt(var, lo, hi, body, space, pos=self.pos(t))

    def decl_stmt(self) -> Stmt:
        i = self.i
        decl_type = self.parse_type()
        name = self.ident()
        pos = self.pos(i)
        if self.values[self.i] == ";":
            self.i += 1
            return LocalDecl(decl_type, name, None, pos=pos)
        self.expect("=")
        return self.rhs_stmt(VarRef(name, pos=pos), decl_type, pos)

    def lvalue_stmt(self) -> Stmt:
        pos = self.pos(self.i)
        chain = self.postfix_chain()
        value = self.values[self.i]
        if value == "(":
            recv, method = self.split_callee(chain)
            return self.call_rest(None, None, recv, method, pos)
        if value == "+=":
            self.i += 1
            value = self.binary()
            self.expect(";")
            return AugAssign(chain, value, pos=pos)
        self.expect("=")
        return self.rhs_stmt(chain, None, pos)

    def rhs_stmt(self, target: Expr, decl_type: TypeRef | None, pos: Pos) -> Stmt:
        mark = self.i
        if self.values[mark] == "new":
            return self.new_rest(target, decl_type, pos)
        # A call if the value looks like  chain '('
        if self.kinds[mark] == "ident" or self.values[mark] == "this":
            chain = self.postfix_chain()
            if self.values[self.i] == "(":
                recv, method = self.split_callee(chain)
                return self.call_rest(target, decl_type, recv, method, pos)
            self.i = mark
        value = self.binary()
        self.expect(";")
        if decl_type is not None:
            return LocalDecl(decl_type, target.name, value, pos=pos)  # type: ignore[attr-defined]
        return Assign(target, value, pos=pos)

    def new_rest(self, target: Expr, decl_type: TypeRef | None, pos: Pos) -> NewStmt:
        self.expect("new")
        if self.values[self.i] in _VALUE_TYPES:
            self.fail("allocation requires a class type")
        cls_name = self.ident()
        if self.values[self.i] == "[":
            self.i += 1
            length = self.binary(_ARITH)
            self.expect("]")
            self.expect(";")
            return NewStmt(target, decl_type, TypeRef(cls_name, is_array=True), [], length, pos=pos)
        self.expect("(")
        args: list[Expr] = []
        while self.values[self.i] != ")":
            if args:
                self.expect(",")
            args.append(self.binary())
        self.i += 1
        self.expect(";")
        return NewStmt(target, decl_type, TypeRef(cls_name), args, pos=pos)

    def call_rest(self, target, decl_type, receiver, method: str, pos: Pos) -> CallStmt:
        self.expect("(")
        args: list = []
        values = self.values
        while values[self.i] != ")":
            if args:
                self.expect(",")
            i = self.i
            if values[i] == "out":
                self.i = i + 1
                args.append(OutArg(self.postfix_chain(), pos=self.pos(i)))
            else:
                args.append(self.binary())
        self.i += 1
        self.expect(";")
        return CallStmt(target, decl_type, receiver, method, args, pos=pos)

    def split_callee(self, chain: Expr) -> tuple[Expr | None, str]:
        if isinstance(chain, FieldRef):
            return chain.base, chain.field
        if isinstance(chain, VarRef):
            return None, chain.name
        self.fail("call target must be a method name")

    # -- contract fragments ------------------------------------------------------

    def parse_tag(self) -> Tag:
        i = self.i
        value = self.values[i]
        if value == "return":
            tag = _RETURN
        elif value == "this":
            tag = _THIS
        elif self.kinds[i] == "ident":
            tag = Tag.user(value)
        else:
            self.fail("expected an escape tag")
        self.i = i + 1
        return tag

    def parse_path(self) -> PathExpr:
        i = self.i
        root = self.values[i]
        if root != "this" and root != "return" and self.kinds[i] != "ident":
            self.fail("expected a path root")
        self.i = i + 1
        fields = []
        while self.values[self.i] == ".":
            self.i += 1
            fields.append(self.ident())
        return PathExpr(root, tuple(fields))

    def cmp_list(self) -> list[Cmp]:
        out = [self.one_cmp()]
        while self.values[self.i] == "&&":
            self.i += 1
            out.append(self.one_cmp())
        return out

    def one_cmp(self) -> Cmp:
        left = self.binary(_ARITH)
        i = self.i
        rel = self.values[i]
        if rel not in RELATIONS:
            self.fail("expected a comparison operator")
        self.i = i + 1
        right = self.binary(_ARITH)
        return Cmp(left, rel, right, pos=self.pos(i))

    # -- expressions ------------------------------------------------------------

    def binary(self, lowest: int = 1) -> Expr:
        """Precedence climbing (Pratt, POPL 1973) over the operators of level
        `lowest` and tighter, grouped to the left.  A right operand holds only
        tighter operators, so the next one is at most as tight as the last;
        after a relation it must be looser still, so relations never chain."""
        e = self.unary_expr()
        limit = _TIGHTEST
        values = self.values
        while True:
            i = self.i
            op = values[i]
            prec = BINARY_PREC.get(op, 0)
            if not lowest <= prec <= limit:
                return e
            self.i = i + 1
            e = Binary(op, e, self.binary(prec + 1), pos=self.pos(i))
            limit = prec - 1 if op in RELATIONS else prec

    def unary_expr(self) -> Expr:
        i = self.i
        op = self.values[i]
        if op == "-" or op == "!":
            node = Unary(op, None)
            self.i = i + 1
            node.operand = self.unary_expr()
            node.pos = self.pos(i)
            return node
        return self.postfix_chain()

    def postfix_chain(self) -> Expr:
        e = self.primary()
        values = self.values
        while True:
            i = self.i
            value = values[i]
            if value == ".":
                if values[i + 1] == "length":
                    self.i = i + 2
                    e = LengthRef(e, pos=self.pos(i + 1))
                    continue
                self.i = i + 1
                e = FieldRef(e, self.ident(), pos=self.pos(i + 1))
            elif value == "[":
                self.i = i + 1
                idx = self.binary(_ARITH)
                self.expect("]")
                e = IndexRef(e, idx, pos=self.pos(i))
            else:
                return e

    def primary(self) -> Expr:
        i = self.i
        kind = self.kinds[i]
        value = self.values[i]
        if kind == "int":
            self.i = i + 1
            return IntLit(int(value), pos=self.pos(i))
        if kind == "string":
            self.i = i + 1
            return StrLit(unquote(value), pos=self.pos(i))
        if kind == "ident":
            node = VarRef(value)
        else:
            made = _PRIMARIES.get(value)
            if made is None:
                self.fail(f"unexpected token {self.shown(i)!r} in expression")
            node_type, args = made
            node = node_type(*args)
        self.i = i + 1
        if value == "(":
            node.inner = self.binary()
            self.expect(")")
        elif value == "max":
            self.expect("(")
            node.left = self.binary()
            self.expect(",")
            node.right = self.binary()
            self.expect(")")
        node.pos = self.pos(i)
        return node


# The reader of each field kind of a keyword statement's shape, and each
# shape as its steps: a reader, or None and the punctuation it must have.
_READERS = {"tag": _Parser.parse_tag, "type": _Parser.parse_type,
            "expr": _Parser.binary, "cmps": _Parser.cmp_list,
            "path": _Parser.parse_path}
_SHAPES = {word: (node, [(_READERS.get(w), w) for w in shape.split()])
           for word, (node, shape) in SHAPES.items()}


def _refuse(message: str):
    return lambda parser: parser.fail(message)


# The reader of each statement that a keyword opens, but those that
# `_Parser.statement` reads in place.
_STATEMENTS = {
    **dict.fromkeys(_VALUE_TYPES, _Parser.decl_stmt),
    "for": _Parser.for_stmt,
    "this": _Parser.lvalue_stmt,
    "while": _refuse("while loops are not supported; use a counted for loop"),
    "new": _refuse("an allocation must be assigned to a target"),
}
# The node that each keyword or punctuator opening a primary expression
# makes, as its type and first arguments; its parts and position are set
# once they are read.
_PRIMARIES = {
    "true": (BoolLit, (True,)),
    "false": (BoolLit, (False,)),
    "null": (NullLit, ()),
    "this": (ThisRef, ()),
    "(": (ParenExpr, (None,)),
    "max": (MaxExpr, (None, None)),
}


def parse(source: str, file: str = "<mcl>") -> Program:
    """Parse source text into an unresolved Program.

    Raises ParseFailure carrying diagnostics on the first syntax error.
    """
    parser = _Parser(source, file)
    try:
        return parser.program()
    except RecursionError:
        parser.fail("nesting is too deep to parse")
