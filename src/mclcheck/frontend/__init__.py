"""Source handling: lexing, parsing, printing, and resolution."""

from .diagnostics import (
    Diagnostic, FrontendFailure, ParseFailure, ResolveFailure,
    SEV_ERROR, SEV_WARNING,
)
from .parser import parse
from .printer import cmp_to_str, expr_to_str, pretty
from .resolver import resolve
from .syntax import (
    AddEscStmt, Assign, AugAssign, Binary, BindEscStmt, BoolLit, CallStmt,
    Clause, ClassDecl, Cmp, DestEscStmt, DestLocalStmt, EnsureStmt, EscStmt,
    Expr, FieldDecl, FieldRef, ForStmt, IfStmt, IndexRef, IntLit,
    IterationSpaceStmt, LengthRef, LocalDecl, MaxExpr, MemReqStmt,
    MethodContract, MethodDecl, NewStmt, NullLit, OBJECT_KEY, OutArg,
    ParenExpr, Param, PathExpr, Pos, Program, RequiresStmt, ReturnStmt,
    Stmt, StrLit, Tag, ThisRef, TypeRef, Unary, VarRef, callee_of, collapsed,
    entry_vars, expr_bound, expr_poly, iter_stmts, obligations, program_to_json,
    var_expr,
)


def load(source: str, file: str = "<mcl>") -> Program:
    """Parse and resolve in one step."""
    program = parse(source, file)
    resolve(program)
    return program


__all__ = [name for name in dir() if not name.startswith("_")]
