"""Byte-for-byte snapshots of `instrument`, `ptg` and `check` on the whole
corpus.

The files under tests/golden/ were produced by the CLI itself; any change to
counter naming, counter order, statement placement, graph node ids, edge
order, verdicts, computed bounds, proof kinds or witnesses shows up here as a
diff.  Regenerate them only for an intended change of output, with
`mclcheck instrument FILE`, `mclcheck ptg FILE` and, from the repository
root, `mclcheck check corpus/NAME.mcl --format json` (with `--mode object`
for the files in OBJECT_MODE, as the corpus benchmark runs them).
"""

import io
import json
import pathlib

import pytest

from mclcheck.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
NAMES = sorted(p.stem for p in (ROOT / "corpus").glob("*.mcl"))
OBJECT_MODE = {"family_object", "faulty_object_low"}
EXIT_OF = {"Verified": 0, "Violated": 1, "Unverified": 2}


def _output(*argv):
    out, err = io.StringIO(), io.StringIO()
    assert main(list(argv), out=out, err=err) == 0, err.getvalue()
    return out.getvalue()


def test_every_corpus_file_has_snapshots():
    assert len(NAMES) == 24
    for name in NAMES:
        assert (GOLDEN / f"{name}.instrument.txt").is_file()
        assert (GOLDEN / f"{name}.ptg.dot").is_file()
        assert (GOLDEN / f"{name}.check.json").is_file()


@pytest.mark.parametrize("name", NAMES)
def test_instrument_output_is_unchanged(name):
    got = _output("instrument", str(ROOT / "corpus" / f"{name}.mcl"))
    assert got == (GOLDEN / f"{name}.instrument.txt").read_text()


@pytest.mark.parametrize("name", NAMES)
def test_ptg_dot_output_is_unchanged(name):
    got = _output("ptg", str(ROOT / "corpus" / f"{name}.mcl"))
    assert got == (GOLDEN / f"{name}.ptg.dot").read_text()


@pytest.mark.parametrize("name", NAMES)
def test_check_json_output_is_unchanged(name):
    path = ROOT / "corpus" / f"{name}.mcl"
    mode = ["--mode", "object"] if name in OBJECT_MODE else []
    out, err = io.StringIO(), io.StringIO()
    code = main(["check", str(path), "--format", "json", *mode], out=out, err=err)
    # the snapshot names the file as it is read from the repository root
    got = out.getvalue().replace(json.dumps(str(path)), json.dumps(f"corpus/{name}.mcl"))
    assert got == (GOLDEN / f"{name}.check.json").read_text()
    assert code == EXIT_OF[json.loads(got)["overall"]]
