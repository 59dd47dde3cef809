"""Deterministic pretty-printer.

Printing a parsed program and reparsing it yields the same AST: parser
trees already respect operator precedence, and explicit parentheses are
kept as ParenExpr nodes.  Parens are only added where a synthesized tree
would otherwise reparse differently.
"""

from __future__ import annotations

from .syntax import (
    AddEscStmt, Assign, AugAssign, Binary, BINARY_PREC, BindEscStmt, BoolLit, CallStmt,
    ClassDecl, Cmp, DestEscStmt, DestLocalStmt, EnsureStmt, EscStmt, Expr,
    FieldRef, ForStmt, IfStmt, IndexRef, IntLit, IterationSpaceStmt,
    LengthRef, LocalDecl, MaxExpr, MemReqStmt, MethodDecl, NewStmt, NullLit,
    OutArg, ParenExpr, Program, RELATIONS, RequiresStmt, ReturnStmt, StrLit,
    Stmt, ThisRef, Unary, VarRef,
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


def stmt_lines(s: Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(s, LocalDecl):
        if s.init is None:
            return [f"{pad}{s.decl_type} {s.name};"]
        return [f"{pad}{s.decl_type} {s.name} = {expr_to_str(s.init)};"]
    if isinstance(s, Assign):
        return [f"{pad}{expr_to_str(s.target)} = {expr_to_str(s.value)};"]
    if isinstance(s, AugAssign):
        return [f"{pad}{expr_to_str(s.target)} += {expr_to_str(s.value)};"]
    if isinstance(s, NewStmt):
        lines = []
        if s.dest_esc is not None:
            lines.append(f"{pad}dest_esc({s.dest_esc.source_str()});")
        if s.dest_local:
            lines.append(f"{pad}dest_local;")
        for dst, src in s.add_esc:
            lines.append(f"{pad}add_esc({dst.source_str()}, {src.source_str()});")
        decl = f"{s.decl_type} " if s.decl_type else ""
        if s.class_ref.is_array:
            rhs = f"new {s.class_ref.name}[{expr_to_str(s.length)}]"
        else:
            args = ", ".join(expr_to_str(a) for a in s.args)
            rhs = f"new {s.class_ref.name}({args})"
        lines.append(f"{pad}{decl}{expr_to_str(s.target)} = {rhs};")
        return lines
    if isinstance(s, CallStmt):
        lines = [f"{pad}add_esc({d.source_str()}, {src.source_str()});" for d, src in s.add_esc]
        args = ", ".join(_arg_to_str(a) for a in s.args)
        call = f"{expr_to_str(s.receiver, 7)}.{s.method}({args})" if s.receiver else f"{s.method}({args})"
        if s.target is not None:
            decl = f"{s.decl_type} " if s.decl_type else ""
            lines.append(f"{pad}{decl}{expr_to_str(s.target)} = {call};")
        else:
            lines.append(f"{pad}{call};")
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
            body = " && ".join(cmp_to_str(c) for c in s.space)
            lines.append(f"{pad}{_INDENT}iteration_space({body});")
        for st in s.body:
            lines.extend(stmt_lines(st, depth + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(s, RequiresStmt):
        return [f"{pad}requires({' && '.join(cmp_to_str(c) for c in s.constraints)});"]
    if isinstance(s, MemReqStmt):
        return [f"{pad}memreq<{s.class_ref}>({expr_to_str(s.expr)});"]
    if isinstance(s, EscStmt):
        return [f"{pad}esc<{s.class_ref}>({s.tag.source_str()}, {expr_to_str(s.expr)});"]
    if isinstance(s, BindEscStmt):
        return [f"{pad}bind_esc({s.tag.source_str()}, {s.path});"]
    if isinstance(s, EnsureStmt):
        return [f"{pad}ensure({expr_to_str(s.cond)});"]
    if isinstance(s, DestEscStmt):
        return [f"{pad}dest_esc({s.tag.source_str()});"]
    if isinstance(s, DestLocalStmt):
        return [f"{pad}dest_local;"]
    if isinstance(s, AddEscStmt):
        return [f"{pad}add_esc({s.dst.source_str()}, {s.src.source_str()});"]
    if isinstance(s, IterationSpaceStmt):
        return [f"{pad}iteration_space({' && '.join(cmp_to_str(c) for c in s.constraints)});"]
    raise TypeError(f"unprintable statement {type(s).__name__}")


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
