"""Tokenizer for the contract mini-language: a master regex over each line.

No token spans a line: a string literal may not hold a newline and a
comment ends at one.  So `scan` matches line by line, and each match takes
the blanks before its token along with it; the token's column is where
its group starts.  Only `\\n` ends a line: a `\\r` is a blank.

`scan` gives the tokens as four parallel lists, kinds, values, lines and
columns, which the parser indexes directly.  A string keeps its quoted
source text there, so that no value of one kind equals one of another:
a string's value starts with `"`, a punctuator or keyword value never
does.  `tokenize` gives the same tokens as `Token`s, strings unescaped.

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

# Alternatives are tried in order, on one line at a time.  An identifier
# or keyword starts with an ASCII letter or `_`; any other word is checked
# by `scan`.  `end` matches only at the end of the line, with the comment
# that ends it, if any: on the last line that is where eof sits.  A `/`
# that opens a comment is no punctuator.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<ident>[A-Za-z_]\w*)
  | (?P<punct><=|>=|==|!=|&&|\|\||\.\.|\+=|[-+*<>=;,.(){}\[\]!]|/(?!/))
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<end>(?://.*)?)\Z
  | (?P<word>\w+)
  | (?P<bad>.)
)""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t"}


@dataclass(slots=True)
class Token:
    kind: str  # ident | keyword | int | string | punct | eof
    value: str
    line: int
    col: int


def unquote(text: str) -> str:
    """The value of a string literal, given its quoted source text."""
    return _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text[1:-1])


def scan(source: str, file: str = "<mcl>") -> tuple[list[str], list[str], list[int], list[int]]:
    """The tokens of `source` as parallel lists of kinds, values, lines and
    columns, ending in eof; a string's value is its quoted source text.

    Raises ParseFailure at the first character that starts no token.
    """
    kinds: list[str] = []
    values: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    kind_of, value_of, col_of = kinds.append, values.append, cols.append
    finditer, keywords = _TOKEN.finditer, KEYWORDS
    last = source.count("\n") + 1
    for line, text in enumerate(source.split("\n"), 1):
        first = len(kinds)
        for m in finditer(text):
            kind = m.lastgroup
            value = m[kind]
            col = m.start(kind) + 1
            if kind == "ident":
                if value in keywords:
                    kind = "keyword"
            elif kind == "end":
                if line == last:
                    kind_of("eof")
                    value_of("")
                    col_of(col)
                break
            elif kind == "word":
                # \d takes decimal digits only; a word may not start with
                # another digit, such as "²", that int() would refuse
                if value[0].isalpha():
                    kind = "ident"
                else:
                    kind, value = "bad", value[0]
            if kind == "bad":
                msg = "unterminated string literal" if value == '"' else f"unexpected character {value!r}"
                raise ParseFailure([Diagnostic(SEV_ERROR, "LexError", msg, file, line, col)])
            kind_of(kind)
            value_of(value)
            col_of(col)
        lines += [line] * (len(kinds) - first)
    return kinds, values, lines, cols


def tokenize(source: str, file: str = "<mcl>") -> list[Token]:
    """The tokens of `source`, ending in eof.  Raises ParseFailure at the
    first character that starts no token."""
    return [Token(kind, unquote(value) if kind == "string" else value, line, col)
            for kind, value, line, col in zip(*scan(source, file))]
