"""Static checks on the library source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chiefblocks"


def test_no_assert_statements_in_library():
    """Self-checks must raise, because ``python -O`` strips assert."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"
