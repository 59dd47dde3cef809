"""Tokenizer for the contract mini-language: one pass of a master regex.

The keywords are the primitive types, the keyword statements of
`syntax.SHAPES` (the table the parser reads and the printer writes) and
the words of the base language.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import Diagnostic, ParseFailure, SEV_ERROR
from .syntax import PRIMITIVES, SHAPES

KEYWORDS = PRIMITIVES | SHAPES.keys() | {
    "class", "new", "for", "while", "if", "else", "return", "null", "true",
    "false", "out", "this", "max",
}

# Alternatives are tried in order.  A comment that ends the text is part of
# eof's match, so eof sits where that comment starts.
_TOKEN = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]|//[^\n]*\n)+)
  | (?://[^\n]*)?(?P<eof>\Z)
  | (?P<int>\d+)
  | (?P<word>\w+)
  | (?P<string>"(?:[^"\\\n]|\\[^\n])*")
  | (?P<punct><=|>=|==|!=|&&|\|\||\.\.|\+=|[-+*/<>=;,.(){}\[\]!])
  | (?P<bad>.)
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(slots=True)
class Token:
    kind: str  # ident | keyword | int | string | punct | eof
    value: str
    line: int
    col: int


def tokenize(source: str, file: str = "<mcl>") -> list[Token]:
    tokens: list[Token] = []
    line = 1
    for m in _TOKEN.finditer(source):
        kind, text, start = m.lastgroup, m.group(m.lastgroup), m.start()
        if kind == "skip":
            line += text.count("\n")
            continue
        col = start - source.rfind("\n", 0, start)
        # \d takes decimal digits only; a word may not start with another
        # digit, such as "²", that int() would refuse
        if kind == "word" and not (text[0].isalpha() or text[0] == "_"):
            kind, text = "bad", text[0]
        if kind == "bad":
            msg = "unterminated string literal" if text == '"' else f"unexpected character {text!r}"
            raise ParseFailure([Diagnostic(SEV_ERROR, "LexError", msg, file, line, col)])
        if kind == "word":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "string":
            text = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text[1:-1])
        tokens.append(Token(kind, text, line, col))
        if kind == "eof":
            return tokens
