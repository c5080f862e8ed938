"""Checks on the package source itself."""

import ast
import pathlib

import modh1


def test_no_assert_statements():
    # python -O strips assert, so internal consistency checks must raise
    sources = sorted(pathlib.Path(modh1.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"linalg.py", "cohomology.py",
                                         "cli.py"}
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.extend("%s:%d" % (path.name, node.lineno)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
