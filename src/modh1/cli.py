"""Command line front end.

Subcommands: h1 (cohomology of a named group), verify (formula and
oracle sweeps), witness (certificate construction and self-check),
classify (element and maximal amenable type), pell (equation solving),
and verify-certificate (re-check a stored certificate file).  Reports
are printed as text, JSON, or CSV; exit status is 0 when every check
passes, 1 on a failed mathematical check (a refused claim, ClaimRefused,
or a failed internal consistency check included), and 2 on any other
ValueError: bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from math import isqrt

from . import __version__
from .amenable import classify, max_amenable_type, qform
from .cohomology import (
    Certificate,
    ClaimRefused,
    Cocycle,
    certify_membership_sample,
    certify_nonextendable,
    certify_noncoboundary,
    check_degree,
    cokernel_rank,
    h1,
    make_ba,
    make_beps,
    rank_gl2,
    rank_psl2,
    restriction_cokernel,
    w_invariant_h1_rank,
)
from .congruence import (
    find_torsion,
    lift_to_sl2,
    schreier_free_basis,
    torsion_criterion,
)
from .pell import (
    automorph_step,
    brute_solve,
    cf_sqrt,
    pell4,
    pell_minus,
    pell_plus,
    solve_norm_equation,
)
from .polyrep import GEN_T, Mat2, alt_diagonal_sum, eta, rep_trace
from .presentations import Overgroup, builtin


class Report:
    """Accumulates results and named checks for one command run."""

    def __init__(self, command, params):
        self.command = command
        self.params = dict(params)
        self.results = {}
        self.checks = []
        self.started = time.perf_counter()

    def record(self, name, value):
        self.results[name] = value

    def check(self, name, expected, actual):
        ok = expected == actual
        self.checks.append({"name": name, "expected": expected,
                            "actual": actual, "pass": ok})
        return ok

    def merge(self, check_dicts):
        for c in check_dicts:
            self.checks.append(dict(c))

    def ok(self):
        return all(c["pass"] for c in self.checks)

    def to_payload(self):
        return _plain({
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "checks": self.checks,
            "version": __version__,
            "elapsed": round(time.perf_counter() - self.started, 3),
        })


def _plain(value):
    """Recursively turn tuples into JSON-friendly lists."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _invariants_payload(inv):
    return {"free_rank": inv.free_rank, "torsion": list(inv.torsion)}


def _emit(report, args):
    fmt = getattr(args, "format", "text")
    out = getattr(args, "out", None)
    payload = report.to_payload()
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        lines = ["name,expected,actual,pass"]
        for c in payload["checks"]:
            lines.append("%s,%s,%s,%s" % (
                _csv_cell(c["name"]), _csv_cell(c["expected"]),
                _csv_cell(c["actual"]), "pass" if c["pass"] else "FAIL"))
        text = "\n".join(lines) + "\n"
    else:
        lines = ["%s (modh1 %s)" % (payload["command"], payload["version"])]
        for key in sorted(payload["params"]):
            lines.append("  param %s = %s" % (key, payload["params"][key]))
        for key in sorted(payload["results"]):
            lines.append("  %s: %s" % (key, payload["results"][key]))
        for c in payload["checks"]:
            lines.append("  [%s] %s (expected %s, got %s)" % (
                "pass" if c["pass"] else "FAIL", c["name"],
                c["expected"], c["actual"]))
        lines.append("  %s" % ("all checks pass" if report.ok()
                               else "CHECKS FAILED"))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value):
    text = str(value)
    if "," in text or '"' in text:
        return '"%s"' % text.replace('"', '""')
    return text


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError("range must look like 2..40, got %r" % text)
    return int(lo), int(hi)


def _job_count(args):
    """Worker count from --jobs, clamped to 1..cpu_count."""
    return max(1, min(args.jobs or 1, os.cpu_count() or 1))


def _pmap(fn, items, jobs):
    """Map preserving item order; fans out to processes when jobs > 1."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # deferred: the pool's modules cost about 2 MB resident, which a
    # single-process run does not pay
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _primes_up_to(limit):
    out = []
    for p in range(2, limit + 1):
        if all(p % q for q in range(2, isqrt(p) + 1)):
            out.append(p)
    return out


def _nonsquares_up_to(limit):
    return [D for D in range(2, limit + 1) if isqrt(D) ** 2 != D]


def hyperbolic_corpus(count):
    """Deterministic corpus of hyperbolic matrices with |trace| <= 20."""
    rng = random.Random(20)
    mats = []
    while len(mats) < count:
        a = rng.randint(-10, 10)
        d = rng.randint(-10, 10)
        if not 2 < abs(a + d) <= 20:
            continue
        prod = a * d - 1  # nonzero, as a = d = +-1 has |a + d| = 2
        divisors = [k for k in range(1, abs(prod) + 1) if prod % k == 0]
        b = rng.choice(divisors) * rng.choice((1, -1))
        mats.append(Mat2(a, b, prod // b, d))
    return mats


# ---------------------------------------------------------------- h1 --


def cmd_h1(args):
    report = Report("h1", {"group": args.group, "n": args.n})
    if args.n < 1:
        raise ValueError("n must be at least 1")
    group = args.group.strip()
    if group.startswith("gamma0bar:"):
        p = int(group.split(":", 1)[1])
        basis = schreier_free_basis(p)
        lift = lift_to_sl2(basis)
        inv = h1(lift.presentation, lift.assignment.rep(args.n))
        k = len(basis.words)
        report.record("cosets", p + 1)
        report.record("basis_rank", k)
        report.record("invariants", _invariants_payload(inv))
        report.check("free rank is (k - 1)(n + 1)",
                     (k - 1) * (args.n + 1), inv.free_rank)
        return report
    pres, assignment = builtin(group)
    inv = h1(pres, assignment.rep(args.n))
    report.record("invariants", _invariants_payload(inv))
    report.record("trivial", inv.is_trivial())
    if args.n % 2 == 0 and group in ("psl2", "gl2"):
        formula = rank_psl2(args.n) if group == "psl2" else rank_gl2(args.n)
        matches = report.check("matches rank formula", formula, inv.free_rank)
        report.record("matches_formula", matches)
    return report


# ------------------------------------------------------------ verify --


def _formulas_case(n):
    checks = []
    pres, assignment = builtin("psl2")
    inv_psl = h1(pres, assignment.rep(n))
    checks.append(("psl2 rank formula n=%d" % n,
                   rank_psl2(n), inv_psl.free_rank))
    pres, assignment = builtin("sl2")
    inv_sl = h1(pres, assignment.rep(n))
    checks.append(("sl2 invariants match psl2 n=%d" % n,
                   _invariants_payload(inv_psl),
                   _invariants_payload(inv_sl)))
    pres, assignment = builtin("gl2")
    inv_gl = h1(pres, assignment.rep(n))
    checks.append(("gl2 rank formula n=%d" % n,
                   rank_gl2(n), inv_gl.free_rank))
    checks.append(("gl2 swap-invariant route n=%d" % n,
                   rank_gl2(n), w_invariant_h1_rank(n)))
    return checks


def _identity_case(n):
    return [
        ("order 6 generator trace n=%d" % n, eta(n), rep_trace(GEN_T, n)),
        ("alternating diagonal sum n=%d" % n, eta(n), alt_diagonal_sum(n)),
    ]


def _congruence_case(p):
    checks = [("torsion criterion p=%d" % p,
               p % 12 == 11, torsion_criterion(p))]
    if torsion_criterion(p):
        basis = schreier_free_basis(p)
        checks.append(("free basis rank p=%d" % p,
                       1 + (p + 1) // 6, len(basis.words)))
    else:
        witness = find_torsion(p)
        valid = (witness is not None and witness.det() == 1
                 and witness.c % p == 0
                 and ((witness * witness).proj_eq(Mat2.identity())
                      or (witness * witness * witness).proj_eq(
                          Mat2.identity())))
        checks.append(("torsion witness p=%d" % p, True, valid))
    return checks


def _pell_case(D):
    checks = []
    expansion = cf_sqrt(D)
    plus = pell_plus(D)
    small = [s for s in brute_solve(D, 1, plus.x + 1) if s[0] > 0 and s[1] > 0]
    checks.append(("fundamental minimal D=%d" % D,
                   (plus.x, plus.y), min(small)))
    minus = pell_minus(D)
    checks.append(("negative solvability D=%d" % D,
                   len(expansion.period) % 2 == 1, minus is not None))
    if minus is not None:
        small = [s for s in brute_solve(D, -1, plus.x + 1)
                 if s[0] > 0 and s[1] > 0]
        checks.append(("negative minimal D=%d" % D,
                       (minus.x, minus.y), min(small)))
    four = pell4(D)
    shrunk = any(isqrt(4 + D * s * s) ** 2 == 4 + D * s * s
                 for s in range(1, four.y))
    checks.append(("four-normalized fundamental minimal D=%d" % D,
                   (True, False),
                   (four.x ** 2 - D * four.y ** 2 == 4, shrunk)))
    cover = 400
    for N in (1, -1, 4, -4):
        reps, aut = solve_norm_equation(D, N, cover=cover)
        repset = set(reps)
        complete = True
        for sol in brute_solve(D, N, cover):
            if sol in repset:
                continue
            found = False
            for inverse in (False, True):
                cur = sol
                for _ in range(5):
                    cur = automorph_step(D, aut, cur, inverse=inverse)
                    if cur in repset:
                        found = True
                        break
                if found:
                    break
            if not found:
                complete = False
                break
        checks.append(("orbit completeness D=%d N=%d" % (D, N),
                       True, complete))
    return checks


# entry bound of the brute-force witness search; a witness within it is
# "small", and must then be found by the search
_BRUTE_BOUND = 50


def _inverts(w, g):
    # w has trace 0 and det 1, and w g = g^-1 w
    return w.trace() == 0 and w.det() == 1 and w * g == g.inv() * w


def _amenable_case(entries):
    g = Mat2(*entries)
    witness = max_amenable_type(g).witness
    return {"entries": entries,
            "decided": witness is not None,
            "brute": _brute_witness(g) is not None,
            "valid": witness is None or _inverts(witness, g),
            "small": witness is not None and max(
                abs(t) for t in witness.entries()) <= _BRUTE_BOUND}


def _brute_witness(g):
    a, b, c, d = g.entries()
    for x in range(-_BRUTE_BOUND, _BRUTE_BOUND + 1):
        for y in range(-_BRUTE_BOUND, _BRUTE_BOUND + 1):
            num = (d - a) * x - c * y
            if num % b != 0:
                continue
            z = num // b
            if x * x + y * z == -1:
                return Mat2(x, y, z, -x)
    return None


def _amenable_trio_checks(report):
    cyclic = max_amenable_type(Mat2(3, 1, 2, 1))
    report.check("hyperbolic cyclic example type",
                 "Z x C2", cyclic.sl2_type)
    dihedral = max_amenable_type(Mat2(2, 1, 1, 1))
    report.check("hyperbolic dihedral example type",
                 "Z x| C4", dihedral.sl2_type)
    w = dihedral.witness
    report.check("dihedral witness valid", True,
                 w is not None and _inverts(w, Mat2(2, 1, 1, 1)))
    parabolic = max_amenable_type(Mat2(1, 3, 0, 1))
    report.check("parabolic example generator",
                 "1,1;0,1", parabolic.generator.format())


def _evens(lo, hi):
    return [n for n in range(lo, hi + 1) if n % 2 == 0]


# suite -> (the parameter that bounds it, the checks for one value, the
# values from the parameter)
_SWEEPS = {
    "formulas": ("n_even", _formulas_case,
                 lambda text: _evens(*_parse_range(text))),
    "identity": ("n_max", _identity_case, lambda n_max: _evens(2, n_max)),
    "congruence": ("p_max", _congruence_case,
                   lambda p_max: [p for p in _primes_up_to(p_max) if p > 3]),
    "pell": ("d_max", _pell_case, _nonsquares_up_to),
}


def cmd_verify(args):
    jobs = _job_count(args)
    report = Report("verify", {"suite": args.suite, "jobs": jobs})
    if args.suite in _SWEEPS:
        param, case, values = _SWEEPS[args.suite]
        bound = getattr(args, param)
        report.params[param] = bound
        for chunk in _pmap(case, values(bound), jobs):
            for name, expected, actual in chunk:
                report.check(name, expected, actual)
    else:  # amenable
        report.params["count"] = args.count
        _amenable_trio_checks(report)
        corpus = [g.entries() for g in hyperbolic_corpus(args.count)]
        rows = _pmap(_amenable_case, corpus, jobs)
        bad_valid = [r["entries"] for r in rows if not r["valid"]]
        missed = [r["entries"] for r in rows
                  if r["brute"] and not r["decided"]]
        invisible = [r["entries"] for r in rows
                     if r["small"] and not r["brute"]]
        report.record("corpus_size", len(rows))
        report.check("all returned witnesses valid", [], bad_valid)
        report.check("brute-confirmed witnesses all found", [], missed)
        report.check("small witnesses visible to brute force", [], invisible)
    report.record("checks_run", len(report.checks))
    if not report.checks:
        report.check("nonempty sweep", "at least one check", "no checks")
    return report


# ----------------------------------------------------------- witness --


def _gl2_overgroup():
    pres, assignment = builtin("gl2")
    return Overgroup("gl2", pres, assignment,
                     [pres.parse_word("s"), pres.parse_word("t")])


def _witness_free_lift(p, flags, report):
    n = flags.get("n")
    if n is None or n < 1 or n % 2 == 0:
        raise ValueError("free-lift needs an odd --n")
    check_degree(n)
    basis = schreier_free_basis(int(p))
    lift = lift_to_sl2(basis)
    k = len(basis.words)
    report.record("basis_rank", k)
    # The unit cocycle: X^n on the first generator, 0 on the others.  Both
    # overgroups hold a central element acting by -1 on P_n at odd n, so
    # their restricted classes are 2-torsion ("center kills", Brown,
    # Cohomology of Groups, III.8), and a class of infinite order, as the
    # unit class is at every p and n the tests cover, extends to neither.
    unit = [0] * (k * (n + 1))
    unit[0] = 1
    cocycle = Cocycle.from_stacked(lift.presentation, unit, n + 1)
    cert = certify_nonextendable(lift.presentation, lift.assignment, n,
                                 cocycle, lift.overgroups)
    rank = h1(lift.presentation, lift.assignment.rep(n)).free_rank
    report.record("h1_free_rank", rank)
    report.check("h1 free rank is (k - 1)(n + 1)", (k - 1) * (n + 1), rank)
    refuted = sorted(e["name"] for e in cert.payload["overgroups"])
    report.record("overgroups", refuted)
    report.check("refuted overgroups", ["K x <eps>", "sl2"], refuted)
    return cert


def _witness_ba(rest, flags, report):
    n_text, _, a_text = rest.partition(",")
    n, a = check_degree(int(n_text)), int(a_text)
    cocycle = make_ba(n, a)
    sub_pres, sub_assign = builtin("sl2")
    over = _gl2_overgroup()
    cert = certify_nonextendable(sub_pres, sub_assign, n, cocycle, [over])
    cok = restriction_cokernel(over.presentation, over.assignment.rep(n),
                               sub_pres, sub_assign.rep(n), over.words)
    report.record("cokernel", _invariants_payload(cok))
    report.check("cokernel free rank formula",
                 cokernel_rank(n), cok.free_rank)
    return cert


def _witness_beps(rest, flags, report):
    n_text, _, bits = rest.partition(",")
    n = check_degree(int(n_text))
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError("beps bits must be a nonempty 0/1 string")
    eps = [int(ch) for ch in bits]
    if not any(eps):
        raise ValueError("the zero vector gives a coboundary")
    cocycle = make_beps(n, eps)
    pres, assignment = builtin("gl2")
    report.record("epsilon", eps)
    return certify_noncoboundary(pres, assignment, n, cocycle)


def _witness_gamma(N, flags, report):
    # only the sample flags given are passed, so the library's defaults
    # hold for the others
    cert = certify_membership_sample(int(N), **flags)
    report.record("sampled_words", cert.payload["count"])
    report.check("membership mismatches", 0, cert.payload["mismatches"])
    return cert


# kind -> (the witness flags it reads, the name and expected value of the
# check that reports a refused claim, the builder of its certificate)
_WITNESSES = {
    "free-lift": (("n",), "unit class is nonextendable", "refuted",
                  _witness_free_lift),
    "ba": ((), "class is nonextendable", "refuted", _witness_ba),
    "beps": ((), "cocycle is not a coboundary", "refuted", _witness_beps),
    "gammaN": (("seed", "count", "max_length"), "membership sample clean",
               "no mismatches", _witness_gamma),
}


def cmd_witness(args):
    report = Report("witness", {"kind": args.kind, "n": args.n})
    base, sep, rest = args.kind.partition(":")
    if not sep or base not in _WITNESSES:
        raise ValueError("kind must look like free-lift:p, ba:n,a, "
                         "beps:n,bits, or gammaN:N, got %r" % args.kind)
    reads, refusal, expected, build = _WITNESSES[base]
    flags = {}
    for flag in ("n", "seed", "count", "max_length"):
        if getattr(args, flag) is not None:
            if flag not in reads:
                raise ValueError("%s reads no --%s"
                                 % (base, flag.replace("_", "-")))
            flags[flag] = getattr(args, flag)
    try:
        cert = build(rest, flags, report)
    except ClaimRefused as e:
        report.check(refusal, expected, str(e))
        return report
    path = args.cert
    if not path:
        path = "modh1-%s.cert.json" % args.kind.replace(":", "-").replace(
            ",", "-")
        if args.n is not None:
            path = path.replace(".cert.json", "-n%d.cert.json" % args.n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cert.to_json() + "\n")
    with open(path, "r", encoding="utf-8") as fh:
        stored = Certificate.from_json(fh.read())
    report.record("certificate", path)
    report.record("kind", stored.payload["kind"])
    report.merge(stored.verify())
    return report


# ---------------------------------------------------------- classify --


def cmd_classify(args):
    try:
        g = Mat2.parse(args.matrix)
    except (ValueError, IndexError):
        raise ValueError("matrix must look like a,b;c,d")
    if g.det() != 1:
        raise ValueError("determinant must be 1, got %d" % g.det())
    report = Report("classify", {"matrix": g.format()})
    cls = classify(g)
    report.record("class", cls.tag)
    report.record("trace", g.trace())
    if cls.order is not None:
        report.record("order", cls.order)
        report.check("order is the matrix order", True,
                     g ** cls.order == Mat2.identity()
                     and all(g ** k != Mat2.identity()
                             for k in range(1, cls.order)))
    if cls.tag == "central":
        report.record("note", "central; contained in every maximal "
                              "amenable subgroup")
        return report
    amen = max_amenable_type(g)
    report.record("psl_type", amen.psl_type)
    report.record("sl2_type", amen.sl2_type)
    if cls.tag == "hyperbolic":
        form = qform(g)
        report.record("qform", form.coefficients())
        report.record("discriminant", form.discriminant)
    if amen.witness is not None:
        w = amen.witness
        report.record("witness", w.format())
        report.check("witness conjugates to the inverse", True,
                     _inverts(w, g))
    if amen.generator is not None:
        gen = amen.generator
        report.record("generator", gen.format())
        report.check("generator commutes with input", True,
                     gen * g == g * gen)
    return report


# -------------------------------------------------------------- pell --


def cmd_pell(args):
    if args.d < 2 or isqrt(args.d) ** 2 == args.d:
        raise ValueError("--d must be a nonsquare integer above 1")
    report = Report("pell", {"d": args.d})
    expansion = cf_sqrt(args.d)
    report.record("cf_integer_part", expansion.a0)
    report.record("cf_period", expansion.period)
    plus = pell_plus(args.d)
    report.record("fundamental", plus.pair())
    report.check("fundamental solves norm 1", 1,
                 plus.x ** 2 - args.d * plus.y ** 2)
    if args.neg:
        minus = pell_minus(args.d)
        report.record("negative", None if minus is None else minus.pair())
        if minus is not None:
            report.check("negative solves norm -1", -1,
                         minus.x ** 2 - args.d * minus.y ** 2)
    if args.four:
        four = pell4(args.d)
        report.record("four_normalized", four.pair())
        report.check("four-normalized solves norm 4", 4,
                     four.x ** 2 - args.d * four.y ** 2)
    if args.solve is not None:
        if args.solve == 0:
            raise ValueError("--solve must be nonzero")
        reps, aut = solve_norm_equation(args.d, args.solve)
        report.record("representatives", reps)
        report.record("automorph", aut.pair())
        report.check("representatives solve the equation", [],
                     [r for r in reps
                      if r[0] ** 2 - args.d * r[1] ** 2 != args.solve])
    return report


# ------------------------------------------------- verify-certificate --


def cmd_verify_certificate(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            cert = Certificate.from_json(fh.read())
    except (OSError, json.JSONDecodeError) as e:
        raise ValueError("cannot read certificate: %s" % e)
    report = Report("verify-certificate", {"file": args.file})
    try:
        checks = cert.verify()
    except (KeyError, ValueError, TypeError) as e:
        raise ValueError("malformed certificate payload: %s" % e)
    payload = cert.payload
    report.record("kind", payload.get("kind")
                  if isinstance(payload, dict) else None)
    report.merge(checks)
    return report


# -------------------------------------------------------------- main --


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modh1",
        description="Exact first cohomology of modular groups acting on "
                    "integral binary forms.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # None until given, so each command can pick its own default
        p.add_argument("--format", choices=("text", "json", "csv"))
        p.add_argument("--out", help="write the report to this file")

    p = sub.add_parser("h1", help="invariants of H^1 for a named group")
    p.set_defaults(func=cmd_h1)
    p.add_argument("--group", required=True,
                   help="psl2, sl2, pgl2, gl2, free:k, or gamma0bar:p")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("verify", help="run a formula or oracle sweep")
    p.set_defaults(func=cmd_verify)
    p.add_argument("--suite", required=True,
                   choices=("formulas", "identity", "congruence", "pell",
                            "amenable"))
    p.add_argument("--n-even", default="2..40",
                   help="even degree range for the formulas suite")
    p.add_argument("--n-max", type=int, default=200,
                   help="degree bound for the identity suite")
    p.add_argument("--p-max", type=int, default=200,
                   help="prime bound for the congruence suite")
    p.add_argument("--d-max", type=int, default=50,
                   help="discriminant bound for the pell suite")
    p.add_argument("--count", type=int, default=200,
                   help="corpus size for the amenable suite")
    p.add_argument("--jobs", type=int,
                   help="worker processes (default 1)")
    common(p)

    p = sub.add_parser("witness", help="build and self-verify a certificate",
                       description="Exit 1 if the claim is refused "
                                   "(ClaimRefused), 2 on any other bad "
                                   "input, such as a flag the kind does "
                                   "not read.")
    p.set_defaults(func=cmd_witness)
    p.add_argument("--kind", required=True,
                   help="free-lift:p (reads --n), ba:n,a, beps:n,bits, or "
                        "gammaN:N (reads --seed, --count, --max-length)")
    p.add_argument("--n", type=int, help="odd degree (free-lift only)")
    p.add_argument("--cert", help="certificate output path")
    p.add_argument("--seed", type=int,
                   help="sample seed (gammaN only, default 0)")
    p.add_argument("--count", type=int,
                   help="sample size (gammaN only, default 10000)")
    p.add_argument("--max-length", type=int,
                   help="sample word length bound (gammaN only, default 20)")
    common(p)

    p = sub.add_parser("classify", help="element and maximal amenable type")
    p.set_defaults(func=cmd_classify)
    p.add_argument("--matrix", required=True,
                   help="entries as a,b;c,d (use --matrix=-1,0;0,-1 "
                        "when the first entry is negative)")
    common(p)

    p = sub.add_parser("pell", help="Pell equation data for one D")
    p.set_defaults(func=cmd_pell)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--neg", action="store_true",
                   help="include the norm -1 equation")
    p.add_argument("--four", action="store_true",
                   help="include the norm 4 equation")
    p.add_argument("--solve", type=int,
                   help="solve u^2 - D y^2 = N for this N")
    common(p)

    p = sub.add_parser("verify-certificate",
                       help="re-check a stored certificate")
    p.set_defaults(func=cmd_verify_certificate)
    p.add_argument("file")
    common(p)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = "json" if args.command == "pell" else "text"
    try:
        report = args.func(args)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RuntimeError as e:
        # an internal consistency check tripped: a failed check, not a
        # usage error and not a traceback
        report = Report(args.command, {})
        report.check("internal consistency", "no error", str(e))
    _emit(report, args)
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
