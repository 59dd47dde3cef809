"""The frontend's trees and diagnostics on mutated corpus programs, pinned.

`tests/pinned/frontend_mutants.json` holds seeded token-level mutations of
every corpus program: tokens inserted, deleted, and spliced in from elsewhere
in the same file.  A case is a list of edits `[start, end, text]`, each
applied in turn to the text the previous one left, and the result the
frontend gave when the set was recorded:

- a list of strings: the parse diagnostics;
- a string: a digest of the parsed tree's `program_to_json` together with
  every resolver diagnostic, warnings included.

The same file pins the token lists (or the lexer's diagnostic) of a few
handwritten inputs at the edges of each token class.

Regenerate the set only when a change to the frontend's output is
deliberate:

    PYTHONPATH=src python tests/test_frontend_pinned.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

from mclcheck.frontend import ParseFailure, ResolveFailure, parse, resolve
from mclcheck.frontend.lexer import tokenize
from mclcheck.frontend.syntax import program_to_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
PINNED = ROOT / "tests" / "pinned" / "frontend_mutants.json"
CASES_PER_FILE = 100
OPERATORS = {"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=", "&&", "||", "!"}


LEXER_INPUTS = [
    "x_1 _y é9 ٣4 12abc 007", "a.b.length a..b a...b 1..n", "<= >= == != && || += ! < > =",
    "+-*/;,.(){}[]", "a\tb\r\nc // note\n  d // at eof", "// only a comment", "",
    '"" "a b" "q\\"x" "t\\t\\n" "\\\\" "\\q" "// no comment"', '"open', 'x "a\nb"',
    '"ab\\', '"a\\"b" c', "a\fb", "a & b", "a | b", "a @ b", "#", "x\n  $", "a\u00a0b",
    "class if iff max maxi this",
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome(text: str) -> str | list[str]:
    try:
        program = parse(text, "m")
    except ParseFailure as e:
        return [str(d) for d in e.diagnostics]
    tree = program_to_json(program)
    try:
        diags = resolve(program)
    except ResolveFailure as e:
        diags = e.diagnostics
    return _digest("\n".join([tree, *map(str, diags)]))


def lexed(text: str) -> list | str:
    try:
        return [[t.kind, t.value, t.line, t.col] for t in tokenize(text, "m")]
    except ParseFailure as e:
        return str(e.diagnostics[0])


def apply(text: str, edits: list) -> str:
    for start, end, insert in edits:
        text = text[:start] + insert + text[end:]
    return text


def _spans(text: str) -> list[tuple[int, int]]:
    """(start, end) character offsets of each token of `text`, eof excluded."""
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    spans = []
    for t in tokenize(text)[:-1]:
        start = starts[t.line - 1] + t.col - 1
        end = start + len(t.value)
        if t.kind == "string":
            end = start + 1
            while text[end] != '"':
                end += 2 if text[end] == "\\" else 1
            end += 1
        spans.append((start, end))
    return spans


def _kind(token: str) -> str:
    if token[0].isdigit():
        return "int"
    if token[0].isalpha() or token[0] in '_"':
        return "word"
    return "op" if token in OPERATORS else token


def _mutate(rng: random.Random, text: str) -> list:
    spans = _spans(text)
    if not spans:
        return []
    toks = [text[a:b] for a, b in spans]
    # (start, end) of each run of tokens that opens a statement and ends in ;
    stmts = []
    for i in range(1, len(toks)):
        j = i
        while toks[i - 1] in (";", "{", "}") and toks[j] not in (";", "{", "}"):
            j += 1
        if j > i and toks[j] == ";":
            stmts.append((spans[i][0], spans[j][1]))
    kind = rng.choice(("insert", "delete", "delete", "splice", "splice", "splice"))
    i = rng.randrange(len(spans))
    if kind == "insert":
        at = rng.choice(spans[i])
        return [at, at, f" {rng.choice(toks)} "]
    if kind == "delete":
        if stmts and rng.random() < 0.5:
            return [*rng.choice(stmts), ""]
        return [spans[i][0], spans[min(i + rng.randint(1, 3), len(spans)) - 1][1], ""]
    if not stmts or rng.random() < 0.6:
        # one token for another of its kind: a word, a number or an operator
        return [*spans[i], rng.choice([t for t in toks if _kind(t) == _kind(toks[i])])]
    a, b = rng.choice(stmts)
    at = rng.choice(stmts)[0]
    return [at, at, text[a:b] + " "]


def record() -> dict:
    files = {}
    for path in sorted(CORPUS.glob("*.mcl")):
        source = path.read_text()
        rng = random.Random(path.name)
        cases = [[[], outcome(source)]]
        while len(cases) < CASES_PER_FILE:
            edits, text = [], source
            for _ in range(rng.randint(1, 2)):
                edit = _mutate(rng, text)
                if not edit:
                    break
                edits.append(edit)
                text = apply(text, [edit])
            cases.append([edits, outcome(text)])
        files[path.name] = {"source": _digest(source), "cases": cases}
    return {"corpus": files, "lexer": [[text, lexed(text)] for text in LEXER_INPUTS]}


PINNED_SET = json.loads(PINNED.read_text()) if PINNED.exists() else {"corpus": {}, "lexer": []}
PINNED_FILES = PINNED_SET["corpus"]


@pytest.mark.parametrize("name", sorted(PINNED_FILES))
def test_mutated_corpus_parses_and_resolves_as_pinned(name):
    pinned = PINNED_FILES[name]
    source = (CORPUS / name).read_text()
    assert _digest(source) == pinned["source"], f"{name} changed since the set was recorded"
    for n, (edits, expected) in enumerate(pinned["cases"]):
        assert outcome(apply(source, edits)) == expected, f"{name} case {n}: {edits}"


@pytest.mark.parametrize("text, expected", PINNED_SET["lexer"])
def test_token_class_edges_lex_as_pinned(text, expected):
    assert lexed(text) == expected


def test_every_corpus_program_is_pinned():
    assert sorted(PINNED_FILES) == sorted(p.name for p in CORPUS.glob("*.mcl"))


if __name__ == "__main__":
    PINNED.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
