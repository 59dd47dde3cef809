"""Deterministic pretty-printer.

Printing a parsed program and reparsing it yields the same AST: parser
trees already respect operator precedence, and explicit parentheses are
kept as ParenExpr nodes.  Parens are only added where a synthesized tree
would otherwise reparse differently.  Keyword statements are written from
`syntax.SHAPES`, the table of their shapes that the parser reads: each
field kind there names a writer here.
"""

from __future__ import annotations

from dataclasses import fields

from .syntax import (
    AddEscStmt, Assign, AugAssign, Binary, BINARY_PREC, BoolLit, CallStmt,
    ClassDecl, Cmp, DestEscStmt, DestLocalStmt, Expr, FieldRef, ForStmt, IfStmt,
    IndexRef, IntLit, IterationSpaceStmt, LengthRef, LocalDecl, MaxExpr,
    MethodDecl, NewStmt, NullLit, OutArg, ParenExpr, Program, RELATIONS,
    ReturnStmt, SHAPES, StrLit, Stmt, Tag, ThisRef, Unary, VarRef,
)

_INDENT = "    "


def expr_to_str(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StrLit):
        escaped = e.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, NullLit):
        return "null"
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, ThisRef):
        return "this"
    if isinstance(e, FieldRef):
        return f"{expr_to_str(e.base, 7)}.{e.field}"
    if isinstance(e, LengthRef):
        return f"{expr_to_str(e.base, 7)}.length"
    if isinstance(e, IndexRef):
        return f"{expr_to_str(e.base, 7)}[{expr_to_str(e.index)}]"
    if isinstance(e, Unary):
        return f"{e.op}{expr_to_str(e.operand, 6)}"
    if isinstance(e, MaxExpr):
        return f"max({expr_to_str(e.left)}, {expr_to_str(e.right)})"
    if isinstance(e, ParenExpr):
        return f"({expr_to_str(e.inner)})"
    if isinstance(e, Binary):
        prec = BINARY_PREC[e.op]
        left = prec + 1 if e.op in RELATIONS else prec  # relations do not chain
        text = f"{expr_to_str(e.left, left)} {e.op} {expr_to_str(e.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"unprintable expression {type(e).__name__}")


def cmp_to_str(c: Cmp) -> str:
    return f"{expr_to_str(c.left)} {c.rel} {expr_to_str(c.right)}"


def _arg_to_str(a) -> str:
    if isinstance(a, OutArg):
        return f"out {expr_to_str(a.target)}"
    return expr_to_str(a)


# The writer of each field kind of a keyword statement's shape.
_WRITERS = {"tag": Tag.source_str, "type": str, "expr": expr_to_str,
            "cmps": lambda cs: " && ".join(map(cmp_to_str, cs)), "path": str}


def _template(word: str, node: type, shape: str) -> tuple[str, list]:
    """A keyword statement's shape as a format string, with a slot for each
    field kind and punctuation as is but for a space after a comma, and
    for each slot its writer and the node field it writes."""
    words = shape.split()
    text = "".join("{}" if w in _WRITERS else ", " if w == "," else w for w in words)
    writers = [_WRITERS[w] for w in words if w in _WRITERS]
    return word + text, list(zip(writers, [f.name for f in fields(node) if f.compare]))


# Each keyword statement's template, by its node class.
_TEMPLATES = {node: _template(word, node, shape) for word, (node, shape) in SHAPES.items()}


def _annotations(s: NewStmt | CallStmt) -> list[Stmt]:
    """The escape annotations the parser attached to an allocation or call,
    as the statements they were written as."""
    notes: list[Stmt] = []
    if isinstance(s, NewStmt) and s.dest_esc is not None:
        notes.append(DestEscStmt(s.dest_esc))
    if isinstance(s, NewStmt) and s.dest_local:
        notes.append(DestLocalStmt())
    return notes + [AddEscStmt(dst, src) for dst, src in s.add_esc]


def stmt_lines(s: Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    template = _TEMPLATES.get(type(s))
    if template is not None:  # a keyword statement
        text, slots = template
        return [pad + text.format(*[write(getattr(s, name)) for write, name in slots])]
    if isinstance(s, LocalDecl):
        if s.init is None:
            return [f"{pad}{s.decl_type} {s.name};"]
        return [f"{pad}{s.decl_type} {s.name} = {expr_to_str(s.init)};"]
    if isinstance(s, Assign):
        return [f"{pad}{expr_to_str(s.target)} = {expr_to_str(s.value)};"]
    if isinstance(s, AugAssign):
        return [f"{pad}{expr_to_str(s.target)} += {expr_to_str(s.value)};"]
    if isinstance(s, (NewStmt, CallStmt)):
        args = ", ".join(_arg_to_str(a) for a in s.args)
        if isinstance(s, CallStmt):
            rhs = f"{expr_to_str(s.receiver, 7)}.{s.method}({args})" if s.receiver else f"{s.method}({args})"
        elif s.class_ref.is_array:
            rhs = f"new {s.class_ref.name}[{expr_to_str(s.length)}]"
        else:
            rhs = f"new {s.class_ref.name}({args})"
        if s.target is not None:
            decl = f"{s.decl_type} " if s.decl_type else ""
            rhs = f"{decl}{expr_to_str(s.target)} = {rhs}"
        lines = [line for a in _annotations(s) for line in stmt_lines(a, depth)]
        lines.append(f"{pad}{rhs};")
        return lines
    if isinstance(s, ReturnStmt):
        return [f"{pad}return;" if s.value is None else f"{pad}return {expr_to_str(s.value)};"]
    if isinstance(s, IfStmt):
        lines = [f"{pad}if ({expr_to_str(s.cond)}) {{"]
        for st in s.then_body:
            lines.extend(stmt_lines(st, depth + 1))
        if s.else_body:
            lines.append(f"{pad}}} else {{")
            for st in s.else_body:
                lines.extend(stmt_lines(st, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(s, ForStmt):
        lines = [f"{pad}for ({s.var} = {expr_to_str(s.lo)} .. {expr_to_str(s.hi)}) {{"]
        if s.space is not None:
            lines.extend(stmt_lines(IterationSpaceStmt(s.space), depth + 1))
        for st in s.body:
            lines.extend(stmt_lines(st, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"unprintable statement {type(s).__name__}")


def space_label(s: ForStmt) -> str:
    """A loop's iteration_space annotation as written, without its `;`: the
    clause of the row that decides it."""
    return stmt_lines(IterationSpaceStmt(s.space), 0)[0].removesuffix(";")


def method_lines(m: MethodDecl, depth: int) -> list[str]:
    pad = _INDENT * depth
    params = ", ".join(
        f"out {p.decl_type} {p.name}" if p.is_out else f"{p.decl_type} {p.name}"
        for p in m.params
    )
    head = f"{pad}{m.name}({params}) {{" if m.is_ctor else f"{pad}{m.return_type} {m.name}({params}) {{"
    lines = [head]
    for s in m.body:
        lines.extend(stmt_lines(s, depth + 1))
    lines.append(f"{pad}}}")
    return lines


def class_lines(c: ClassDecl) -> list[str]:
    lines = [f"class {c.name} {{"]
    for f in c.fields:
        lines.append(f"{_INDENT}{f.decl_type} {f.name};")
    for i, m in enumerate(c.methods):
        if c.fields or i > 0:
            lines.append("")
        lines.extend(method_lines(m, 1))
    lines.append("}")
    return lines


def pretty(program: Program) -> str:
    chunks = []
    for c in program.classes:
        chunks.append("\n".join(class_lines(c)))
    return "\n\n".join(chunks) + "\n"
