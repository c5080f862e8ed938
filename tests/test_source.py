"""Checks on the package source itself."""

import ast
import pathlib
import re
import sys

import modh1


def module_trees():
    sources = sorted(pathlib.Path(modh1.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"linalg.py", "cohomology.py",
                                         "cli.py"}
    for path in sources:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"),
                                   filename=str(path))


def test_no_assert_statements():
    # python -O strips assert, so internal consistency checks must raise
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in module_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_stdlib_only_imports():
    # the library depends on nothing outside the standard library; its own
    # modules are imported relatively
    found = []
    for name, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found.extend("%s:%d %s" % (name, node.lineno, module)
                         for module in modules
                         if module.split(".")[0] not in sys.stdlib_module_names)
    assert found == []


def public_definitions(tree):
    # public module-level functions and classes, and the public methods and
    # properties of public classes, as dotted names
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        yield "%s.%s" % (node.name, sub.name), sub.name


def test_public_names_have_callers():
    # a public function, class, method or property stays only while
    # something names it besides its own definition: the library, the
    # README or the acceptance gate, so test-only API does not grow back
    root = pathlib.Path(__file__).resolve().parents[1]
    docs = " ".join((root / name).read_text(encoding="utf-8")
                    for name in ("README.md", "tests/test_acceptance.py"))
    defined, named = [], set(re.findall(r"\w+", docs))
    for module, tree in module_trees():
        defined.extend((module, dotted, name)
                       for dotted, name in public_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert [d[:2] for d in defined if d[2] not in named] == []


def test_function_local_imports_are_pinned():
    # an import inside a function breaks an import cycle or defers a costly
    # load; each one left is pinned here with its reason
    pinned = {
        # Certificate.verify hands membership samples to congruence, which
        # imports cohomology for the certificate type
        ("cohomology.py", "verify", "congruence"),
        ("congruence.py", "certify_membership_sample", "cohomology"),
        # hashlib loads OpenSSL, about 3.6 MB resident; only samples pay it
        ("congruence.py", "_sample_record", "hashlib"),
    }
    found = set()
    for module, tree in module_trees():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    found.add((module, func.name, node.module))
                elif isinstance(node, ast.Import):
                    found.update((module, func.name, alias.name)
                                 for alias in node.names)
    assert found == pinned


def test_trusted_constructor_stays_in_linalg():
    # IntMatrix._of neither copies nor checks its rows, so matrices built
    # from certificate JSON, CLI input or other modules go through the
    # checked IntMatrix constructor
    callers = {name for name, tree in module_trees() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "_of"}
    assert callers == {"linalg.py"}


def test_fox_jacobian_only_builds_the_relator_matrix():
    # restrictions, transports and cocycle checks walk vectors along words
    # (transport_blocks); only the relator condition matrix, whose kernel
    # is Z^1, needs whole Fox Jacobians
    callers, named = [], []
    for module, tree in module_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id == "fox_jacobian"):
                        callers.append((module, node.name))
        for node in ast.walk(tree):
            if "fox_jacobian" in (getattr(node, "id", None),
                                  getattr(node, "attr", None),
                                  getattr(node, "name", None)):
                named.append(module)
    assert callers == [("presentations.py", "relator_condition_matrix")]
    assert "cohomology.py" not in named
