"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

Each criterion is a single test so the verbose pytest report shows one
line per criterion.  Expensive cohomology sweeps are shared through a
module cache; every criterion still makes its own assertions.
"""

import json
import time

from modh1.amenable import max_amenable_type
from modh1.cli import _brute_witness, _pell_case, hyperbolic_corpus, main
from modh1.cohomology import (
    beps_count,
    beps_relation_lattice,
    cokernel_rank,
    h1,
    make_beps,
    normalized_cocycle_dim,
    normalized_sym_dim,
    rank_gl2,
    rank_psl2,
    t_fixed_dim,
    t_fixed_sym_dim,
    w_invariant_h1_rank,
)
from modh1.congruence import (
    coset_table,
    find_torsion,
    lift_to_sl2,
    membership_mismatches,
    schreier_free_basis,
    torsion_criterion,
)
from modh1.linalg import IntMatrix, rank, vstack
from modh1.pell import pell_minus, pell_plus
from modh1.polyrep import (
    GEN_S,
    GEN_T,
    GEN_W,
    Mat2,
    alt_diagonal_sum,
    eta,
    rep_trace,
    rho_matrix,
)
from modh1.presentations import builtin

EVEN = list(range(2, 41, 2))
ODD = list(range(1, 40, 2))

_H1_CACHE = {}


def cached_h1(group, n):
    key = (group, n)
    if key not in _H1_CACHE:
        pres, assignment = builtin(group)
        _H1_CACHE[key] = h1(pres, assignment.rep(n))
    return _H1_CACHE[key]


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1)
            if p > 1 and all(p % q for q in range(2, int(p ** 0.5) + 1))]


def _kernel_dim(mats):
    return mats[0].cols - rank(vstack(mats))


def test_criterion_01_projective_rank_formula():
    started = time.monotonic()
    spot = {2: 1, 4: 1, 10: 3}
    for n in EVEN:
        free = cached_h1("psl2", n).free_rank
        sigma = (-1) ** (n // 2 + 1)
        assert free == (n + 1 + 3 * sigma - 4 * eta(n)) // 6
        assert free == rank_psl2(n)
        if n in spot:
            assert free == spot[n]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print("criterion 1 pass: projective rank formula, even n in [2, 40] "
          "(%.1f s)" % elapsed)


def test_criterion_02_determinant_one_agreement():
    for n in EVEN:
        a = cached_h1("psl2", n)
        b = cached_h1("sl2", n)
        assert a.free_rank == b.free_rank
        assert a.torsion == b.torsion
    print("criterion 2 pass: identical invariant factors for the "
          "determinant 1 and projective groups")


def test_criterion_03_odd_degrees_elementary_two_torsion():
    for n in ODD:
        inv = cached_h1("sl2", n)
        assert inv.free_rank == 0
        assert all(t == 2 for t in inv.torsion)
        assert len(inv.torsion) <= n + 1
    assert cached_h1("sl2", 1).is_trivial()
    print("criterion 3 pass: odd degrees give elementary 2-groups, "
          "trivial at degree 1")


def test_criterion_04_swap_extended_rank_formula_both_routes():
    spot_zero = {2, 4, 6, 8, 12}
    for n in EVEN:
        sigma = (-1) ** (n // 2 + 1)
        formula = (n - 5 + 3 * sigma - 4 * eta(n)) // 12
        direct = cached_h1("gl2", n).free_rank
        assert direct == formula == rank_gl2(n)
        assert w_invariant_h1_rank(n) == formula
        if n in spot_zero:
            assert formula == 0
    assert rank_gl2(10) == 1
    print("criterion 4 pass: swap-extended rank formula via direct and "
          "invariant routes, even n in [2, 40]")


def test_criterion_05_two_torsion_bound_and_distinct_classes():
    for n in EVEN:
        m = beps_count(n)
        assert m == (n // 4 if n % 4 == 0 else (n + 2) // 4)
        units = [make_beps(n, [1 if i == k else 0 for i in range(m)])
                 for k in range(m)]
        total = make_beps(n, [1] * m)
        summed = units[0]
        for u in units[1:]:
            summed = summed + u
        assert summed.values == total.values
        lat = beps_relation_lattice(n)
        assert all(x % 2 == 0 for row in lat.data for x in row)
        inv = cached_h1("gl2", n)
        assert inv.two_primary_valuation() >= m
    print("criterion 5 pass: 2-torsion order at least 2^m with the 2^m "
          "symmetric classes pairwise distinct")


def test_criterion_06_kernel_dimension_table():
    table = {2: (2, 1), 4: (2, 1), 6: (4, 3)}
    for n, pair in table.items():
        assert (normalized_cocycle_dim(n), t_fixed_dim(n)) == pair
    for n in EVEN:
        sigma = (-1) ** (n // 2 + 1)
        eye = IntMatrix.identity(n + 1)
        S = rho_matrix(GEN_S, n)
        T = rho_matrix(GEN_T, n)
        W = rho_matrix(GEN_W, n)
        assert _kernel_dim([S + eye]) == normalized_cocycle_dim(n)
        assert _kernel_dim([T - eye]) == t_fixed_dim(n)
        sym_fixed = _kernel_dim([T - eye, W - eye])
        assert sym_fixed == t_fixed_sym_dim(n) == (n + 4 + 2 * eta(n)) // 6
        sym_norm = _kernel_dim([S + eye, W - eye])
        assert sym_norm == normalized_sym_dim(n) == (n + 1 + sigma) // 4
    print("criterion 6 pass: kernel dimension table and closed forms, "
          "even n in [2, 40]")


def test_criterion_07_trace_identity():
    started = time.monotonic()
    for n in range(2, 201, 2):
        value = eta(n)
        assert rep_trace(GEN_T, n) == value
        assert alt_diagonal_sum(n) == value
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print("criterion 7 pass: order 6 trace and alternating binomial "
          "identity, even n up to 200 (%.1f s)" % elapsed)


def test_criterion_08_congruence_suite():
    for p in _primes(5, 200):
        assert torsion_criterion(p) == (p % 12 == 11)
        if not torsion_criterion(p):
            w = find_torsion(p)
            assert w is not None and w.det() == 1 and w.c % p == 0
            assert not w.proj_eq(Mat2.identity())
            assert ((w * w).proj_eq(Mat2.identity())
                    or (w * w * w).proj_eq(Mat2.identity()))
    table = coset_table(11)
    assert len(table.points) == 12
    basis = schreier_free_basis(11)
    assert len(basis.words) == 3
    lift = lift_to_sl2(basis)
    for n in (1, 2, 3):
        res = h1(lift.presentation, lift.assignment.rep(n))
        assert res.free_rank == 2 * (n + 1)
    print("criterion 8 pass: torsion criterion on primes up to 200, "
          "coset and basis counts, lifted free ranks")


def test_criterion_09_witness_pipeline(tmp_path, capsys):
    lift_cert = tmp_path / "lift.json"
    code = main(["witness", "--kind", "free-lift:11", "--n", "1",
                 "--cert", str(lift_cert), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["results"]["overgroups"] == ["K x <eps>", "sl2"]
    assert all(c["pass"] for c in payload["checks"])

    ba_cert = tmp_path / "ba.json"
    code = main(["witness", "--kind", "ba:2,1",
                 "--cert", str(ba_cert), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["results"]["cokernel"]["free_rank"] == 1
    assert cokernel_rank(2) == (2 + 7 + 3 - 4 * eta(2)) // 12 == 1
    assert all(c["pass"] for c in payload["checks"])
    print("criterion 9 pass: non-extendability certificates for the "
          "free lift and the symmetric cocycle")


def test_criterion_10_membership_characterization():
    for N in (2, 3, 5, 11):
        assert membership_mismatches(N, seed=0, count=10000,
                                     max_length=20) == 0
    print("criterion 10 pass: cocycle integrality matches congruence "
          "membership on 10^4 words for N in {2, 3, 5, 11}")


def test_criterion_11_amenable_classification():
    cyclic = max_amenable_type(Mat2(3, 1, 2, 1))
    assert (cyclic.psl_type, cyclic.sl2_type) == ("Z", "Z x C2")
    dihedral = max_amenable_type(Mat2(2, 1, 1, 1))
    assert (dihedral.psl_type, dihedral.sl2_type) == ("Dinf", "Z x| C4")
    w = dihedral.witness
    g = Mat2(2, 1, 1, 1)
    assert w.trace() == 0 and w.det() == 1 and w * g == g.inv() * w
    parabolic = max_amenable_type(Mat2(1, 3, 0, 1))
    assert parabolic.psl_type == "Z"
    assert parabolic.generator == Mat2(1, 1, 0, 1)

    for g in hyperbolic_corpus(200):
        witness = max_amenable_type(g).witness
        brute = _brute_witness(g)
        if brute is not None:
            assert witness is not None
        if witness is not None:
            assert witness.det() == 1 and witness * g == g.inv() * witness
            if max(abs(t) for t in witness.entries()) <= 50:
                assert brute is not None
    print("criterion 11 pass: amenable example trio and 200-matrix "
          "agreement with the brute-force oracle")


def test_criterion_12_pell_suite():
    assert pell_plus(3).pair() == (2, 1)
    assert pell_minus(3) is None
    for D in range(2, 51):
        if int(D ** 0.5) ** 2 == D:
            continue
        for name, expected, actual in _pell_case(D):
            assert expected == actual, name
    print("criterion 12 pass: fundamental solutions, minimality, and "
          "orbit completeness for nonsquare D up to 50")
