"""`validate`'s findings on the corpus, pinned clause by clause.

`tests/pinned/validate_groups.json` holds, for every corpus program and its
instrumented copy under both collectors at the default grid, what
`validate --format json` reports: the exit code, `runs`, `pointsSkipped`,
how many requires aborts and runtime errors there were, and one record per
violated `(method, clause)` and per failed `(method, cond)`, in the order
the sweep first met them.  A record keeps every field of the report's but
`declared` and `trace`.  Fields that are empty or zero are left out, except
the exit code.

Regenerate the set only when a change to validate's findings is deliberate:

    PYTHONPATH=src python tests/test_validate_pinned.py
"""

from __future__ import annotations

import functools
import io
import json
import pathlib
import tempfile

import pytest

from mclcheck import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
PINNED = ROOT / "tests" / "pinned" / "validate_groups.json"
GC = ("ideal", "method-exit")


def validate_json(path, gc: str) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.main(["validate", str(path), "--format", "json", "--gc", gc], out,
                    io.StringIO())
    return code, out.getvalue()


@functools.cache
def outputs(name: str) -> dict[str, tuple[int, str]]:
    """`validate`'s exit code and JSON on `name` and on its instrumented
    copy, under each collector."""
    with tempfile.TemporaryDirectory() as tmp:
        source = CORPUS / f"{name}.mcl"
        copy = pathlib.Path(tmp) / f"{name}.inst.mcl"
        assert cli.main(["instrument", str(source), "--emit", str(copy)]) == 0
        return {f"{label} {gc}": validate_json(path, gc)
                for label, path in ((name, source), (f"{name}.inst", copy))
                for gc in GC}


def findings(code: int, text: str) -> dict:
    data = json.loads(text)
    found = {
        "exit": code,
        "runs": data["runs"],
        "pointsSkipped": data["pointsSkipped"],
        "requiresAborts": len(data["requiresAborts"]),
        "runtimeErrors": len(data["runtimeErrors"]),
        "violations": [{k: v for k, v in rec.items() if k not in ("declared", "trace")}
                       for rec in data["violations"]],
        "ensureFailures": data["ensureFailures"],
    }
    return {k: v for k, v in found.items() if v or k == "exit"}


def dump(pinned: dict) -> str:
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(pinned.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


NAMES = sorted(p.stem for p in CORPUS.glob("*.mcl"))
PINS = json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_validate_findings_match_the_pinned_groups(name):
    got = {key: findings(*result) for key, result in outputs(name).items()}
    assert got == {key: PINS[key] for key in got}


@pytest.mark.parametrize("name", NAMES)
def test_validate_json_stays_small(name):
    # one record and one trace per failed clause, not one per activation
    for key, (_, text) in outputs(name).items():
        assert len(text.encode()) < 8 * 1024, key


def test_every_corpus_program_is_pinned():
    names = {key.split()[0].removesuffix(".inst") for key in PINS}
    assert names == set(NAMES)
    assert len(PINS) == 4 * len(names)


if __name__ == "__main__":
    PINNED.write_text(dump({key: findings(*result)
                            for name in NAMES for key, result in outputs(name).items()}))
