"""Rules the source tree itself must keep."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_no_bare_assert_under_src():
    # `python -O` strips assert statements, so an invariant check written as
    # one silently disappears; raise a real exception instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {', '.join(found)}"
