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
        # the process pool costs about 2 MB resident; only --jobs > 1 pays it
        ("cli.py", "_pmap", "concurrent.futures"),
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


def test_trusted_2x2_and_word_constructors_stay_home():
    # _mat2 and _word check nothing, so 2x2 values and words from
    # certificate JSON, CLI input or other modules go through the checked
    # Mat2 and Word constructors
    for name, home in (("_mat2", "polyrep.py"), ("_word", "presentations.py")):
        _, named = callers_and_modules(name)
        assert named == {home}


def callers_and_modules(name):
    # (module, top-level definition) of every call to name, and the
    # modules that name it at all
    callers, named = [], set()
    for module, tree in module_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Call)
                            and name in (getattr(sub.func, "id", None),
                                         getattr(sub.func, "attr", None))):
                        callers.append((module, node.name))
        for node in ast.walk(tree):
            if name in (getattr(node, "id", None),
                        getattr(node, "attr", None),
                        getattr(node, "name", None)):
                named.add(module)
    return callers, named


def test_fox_jacobian_only_builds_the_relator_matrix():
    # restrictions, transports and cocycle checks walk vectors along words
    # (transport_blocks); only the relator condition matrix, whose kernel
    # is Z^1, needs whole Fox Jacobians
    callers, named = callers_and_modules("fox_jacobian")
    assert callers == [("presentations.py", "relator_condition_matrix")]
    assert "cohomology.py" not in named


def test_certificate_recheck_builds_no_restricted_basis():
    # the writer and the re-check test u.RZ as v.Z, with v pulled back to
    # the overgroup, through one helper that builds neither Z^1 nor RZ;
    # only the writer's fallback, for a class the kernel functional does
    # not refute, restricts a Z^1 basis of the overgroup
    callers, _ = callers_and_modules("restriction_image_matrix")
    assert sorted(callers) == [("cohomology.py", "certify_nonextendable"),
                               ("cohomology.py", "restriction_cokernel")]
    callers, _ = callers_and_modules("pull_back_functional")
    assert callers == [("cohomology.py", "_restriction_test")]
    callers, named = callers_and_modules("_restriction_test")
    assert sorted(callers) == [("cohomology.py", "Certificate"),
                               ("cohomology.py", "certify_nonextendable")]
    assert named == {"cohomology.py"}


def test_one_reading_of_a_saturated_quotient():
    # h1 and restriction_cokernel read a quotient of a saturated cocycle
    # lattice the same way, through one helper: an echelon of the relator
    # matrix and a transform-free Smith form, with no kernel basis and no
    # coordinates in one
    callers, _ = callers_and_modules("cokernel_invariants")
    assert [c for c in callers if c[0] == "cohomology.py"] == [
        ("cohomology.py", "_saturated_quotient")]
    callers, named = callers_and_modules("_saturated_quotient")
    assert sorted(callers) == [("cohomology.py", "h1"),
                               ("cohomology.py", "restriction_cokernel")]
    assert named == {"cohomology.py"}
    for name in ("cocycle_basis", "smith_normal_form", "quotient_invariants"):
        callers, _ = callers_and_modules(name)
        assert ("cohomology.py", "restriction_cokernel") not in callers


def test_rho_matrix_only_through_rep():
    # rho_n of a 2x2 value is read from a Rep's table, which builds each
    # value once: only Rep calls rho_matrix, and no other module names it
    callers, named = callers_and_modules("rho_matrix")
    assert callers == [("presentations.py", "Rep")]
    assert named == {"polyrep.py", "presentations.py"}


def test_projective_images_only_in_the_coset_table():
    # CosetTable works out the images of S and T once and its search reads
    # them from perm_s and perm_t: only CosetTable calls _projective_image
    callers, named = callers_and_modules("_projective_image")
    assert callers == [("congruence.py", "CosetTable")]
    assert named == {"congruence.py"}


def defaulted_parameters(tree):
    # (dotted name, called name, parameter, position) for every defaulted
    # parameter of a public function, or of __init__ or a public method of
    # a public class; position is None for keyword-only parameters
    def params(func, skip):
        args = func.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], first):
            yield a.arg, i - skip
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield a.arg, None

    for node in tree.body:
        if node.__class__ not in (ast.FunctionDef, ast.ClassDef) \
                or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            methods = [(node.name, node.name, node, 0)]
        else:
            methods = [
                ("%s.%s" % (node.name, sub.name),
                 node.name if sub.name == "__init__" else sub.name, sub,
                 0 if any(getattr(d, "id", None) == "staticmethod"
                          for d in sub.decorator_list) else 1)
                for sub in node.body if isinstance(sub, ast.FunctionDef)
                and (sub.name == "__init__" or not sub.name.startswith("_"))]
        for dotted, called, func, skip in methods:
            for name, position in params(func, skip):
                yield dotted, called, name, position


def test_defaults_are_passed():
    # an option whose default is the only value ever passed is a constant:
    # each defaulted parameter is passed, by keyword or by position, in
    # some call in the library or the acceptance gate
    root = pathlib.Path(__file__).resolve().parents[1]
    trees = dict(module_trees())
    calls = {}  # called name -> positions and keywords passed
    for tree in list(trees.values()) + [ast.parse(
            (root / "tests/test_acceptance.py").read_text(encoding="utf-8"))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                passed = calls.setdefault(name, set())
                passed.update("*" if isinstance(a, ast.Starred) else i
                              for i, a in enumerate(node.args))
                passed.update(k.arg or "**" for k in node.keywords)
    exempt = {("cli.py", "main", "argv")}  # None reads sys.argv
    unpassed = []
    for module, tree in trees.items():
        for dotted, called, name, position in defaulted_parameters(tree):
            ways = {name, "**"}
            if position is not None:
                ways |= {position, "*"}
            if (module, dotted, name) not in exempt \
                    and not ways & calls.get(called, set()):
                unpassed.append("%s:%s(%s)" % (module, dotted, name))
    assert unpassed == []



def test_claim_refusals_are_caught_once():
    # a refused claim is ClaimRefused, a ValueError, which main would
    # report as bad input: only cmd_witness catches it, and no witness
    # builder catches a ValueError; the budget and sample bounds are left
    # to the certify functions that check them
    handlers = []
    for module, tree in module_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                handlers.extend(
                    (module, node.name, {n.id for n in ast.walk(sub.type)
                                         if isinstance(n, ast.Name)})
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.ExceptHandler) and sub.type)
    assert [h[:2] for h in handlers if "ClaimRefused" in h[2]] == [
        ("cli.py", "cmd_witness")]
    witness = [h for h in handlers if h[0] == "cli.py"
               and (h[1] == "cmd_witness" or h[1].startswith("_witness_"))]
    assert witness == [("cli.py", "cmd_witness", {"ClaimRefused"})]
    for name in ("check_cost", "check_sample_fields"):
        callers, _ = callers_and_modules(name)
        assert [c for c in callers if c[0] == "cli.py"] == []
