"""Byte-for-byte snapshots of `instrument` and `ptg` on the whole corpus.

The files under tests/golden/ were produced by the CLI itself; any change to
counter naming, counter order, statement placement, graph node ids or edge
order shows up here as a diff.  Regenerate them only for an intended change
of output, with `mclcheck instrument FILE` and `mclcheck ptg FILE`.
"""

import io
import pathlib

import pytest

from mclcheck.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
NAMES = sorted(p.stem for p in (ROOT / "corpus").glob("*.mcl"))


def _output(*argv):
    out, err = io.StringIO(), io.StringIO()
    assert main(list(argv), out=out, err=err) == 0, err.getvalue()
    return out.getvalue()


def test_every_corpus_file_has_snapshots():
    assert len(NAMES) == 24
    for name in NAMES:
        assert (GOLDEN / f"{name}.instrument.txt").is_file()
        assert (GOLDEN / f"{name}.ptg.dot").is_file()


@pytest.mark.parametrize("name", NAMES)
def test_instrument_output_is_unchanged(name):
    got = _output("instrument", str(ROOT / "corpus" / f"{name}.mcl"))
    assert got == (GOLDEN / f"{name}.instrument.txt").read_text()


@pytest.mark.parametrize("name", NAMES)
def test_ptg_dot_output_is_unchanged(name):
    got = _output("ptg", str(ROOT / "corpus" / f"{name}.mcl"))
    assert got == (GOLDEN / f"{name}.ptg.dot").read_text()
