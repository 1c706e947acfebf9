"""Source-level guards on the library itself."""

import ast
from pathlib import Path

import limitknow


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so no invariant may rest on one.
    found = []
    for path in sorted(Path(limitknow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
