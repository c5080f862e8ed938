import random
from functools import reduce

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from modh1.congruence import lift_to_sl2, schreier_free_basis
from modh1.linalg import IntMatrix
from modh1.polyrep import (
    GEN_EPS,
    GEN_S,
    GEN_T,
    GEN_W,
    Mat2,
    alt_diagonal_sum,
    eta,
    rep_trace,
    rho_matrix,
)

X, Y = sympy.symbols("x y")


def rho_by_substitution(A, n):
    """Independent oracle: expand P(aX + cY, bX + dY) symbolically."""
    cols = []
    for k in range(n + 1):
        poly = (sympy.Poly(A.a * X + A.c * Y, X, Y) ** (n - k)
                * sympy.Poly(A.b * X + A.d * Y, X, Y) ** k)
        col = [int(poly.coeff_monomial(X ** (n - j) * Y ** j))
               for j in range(n + 1)]
        cols.append(col)
    return IntMatrix.from_columns(cols, rows=n + 1)


def test_mat2_basics():
    s, t = GEN_S, GEN_T
    assert s.det() == 1 and t.det() == 1 and GEN_W.det() == -1
    assert s * s.inv() == Mat2.identity()
    assert s ** 4 == Mat2.identity()
    assert s ** 2 == GEN_EPS
    assert t ** 3 == GEN_EPS
    assert t ** 6 == Mat2.identity()
    assert (GEN_W * s) ** 2 == Mat2.identity()
    assert (GEN_W * t) ** 2 == Mat2.identity()
    assert Mat2.parse("0,-1; 1,0") == s
    assert Mat2.parse(s.format()) == s
    assert (-s).proj_eq(s)
    assert (s ** -1) == s.inv()


@pytest.mark.parametrize("entry", [True, 1.0, "1", None])
def test_mat2_refuses_a_non_int_entry(entry):
    with pytest.raises(TypeError):
        Mat2(entry, 0, 0, 1)


def mul2(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def same_value(m, entries):
    # m holds entries, and compares and hashes as the checked Mat2 of them
    checked = Mat2(*entries)
    return (type(m) is Mat2 and m.entries() == entries and m == checked
            and hash(m) == hash(checked))


def power2(x, k):
    return reduce(mul2, [x] * k, (1, 0, 0, 1))


unimodular = st.lists(st.sampled_from([GEN_S, GEN_T, GEN_W, GEN_T.inv()]),
                      max_size=12).map(
    lambda ms: reduce(Mat2.__mul__, ms, Mat2.identity()))
entries = st.tuples(*[st.integers(-10 ** 20, 10 ** 20)] * 4)


@settings(max_examples=200, deadline=None)
@given(entries, entries, unimodular, st.integers(-6, 6))
def test_mat2_arithmetic_matches_the_entrywise_formulas(x, y, g, k):
    # products, negations, inverses, powers and the identity are built
    # without the entry check, and equal the checked Mat2 of the formulas
    assert same_value(Mat2(*x) * Mat2(*y), mul2(x, y))
    assert same_value(-Mat2(*x), tuple(-e for e in x))
    assert same_value(Mat2(*x) ** abs(k), power2(x, abs(k)))
    a, b, c, d = g.entries()
    det = a * d - b * c
    inverse = (det * d, -det * b, -det * c, det * a)
    assert same_value(g.inv(), inverse)
    assert same_value(g ** k, power2(g.entries() if k > 0 else inverse,
                                     abs(k)))
    assert same_value(Mat2.identity(), (1, 0, 0, 1))
    assert Mat2(*x).is_identity() == (x == (1, 0, 0, 1))
    assert (g ** 0).is_identity()
    assert (-g).is_identity() == (g.entries() == (-1, 0, 0, -1))


def test_rho_matches_substitution_oracle():
    rng = random.Random(31)
    mats = [GEN_S, GEN_T, GEN_W, GEN_EPS, Mat2.identity()]
    for _ in range(15):
        mats.append(Mat2(rng.randint(-5, 5), rng.randint(-5, 5),
                         rng.randint(-5, 5), rng.randint(-5, 5)))
    for zero in range(4):  # a zero in each entry position, the rest not
        entries = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4)]
        entries[zero] = 0
        mats.append(Mat2(*entries))
    # a zero column, zero rows and singular matrices with no zero entry
    mats += [Mat2(0, 1, 0, 1), Mat2(1, 0, 1, 0), Mat2(0, 0, 3, -2),
             Mat2(0, 0, 0, 0), Mat2(1, 1, 1, 1), Mat2(2, -4, -3, 6),
             Mat2(6, 4, 9, 6)]
    for A in mats:
        for n in (0, 1, 2, 3, 4, 5, 12, 21):
            assert rho_matrix(A, n) == rho_by_substitution(A, n)


def test_rho_is_a_homomorphism():
    rng = random.Random(37)
    gens = [GEN_S, GEN_T, GEN_W]
    for _ in range(25):
        A = gens[rng.randrange(3)]
        B = gens[rng.randrange(3)]
        for _ in range(rng.randint(0, 3)):
            A = A * gens[rng.randrange(3)]
        n = rng.randint(0, 8)
        assert rho_matrix(A * B, n) == rho_matrix(A, n) * rho_matrix(B, n)
        assert rho_matrix(Mat2.identity(), n) == IntMatrix.identity(n + 1)
        assert rho_matrix(A.inv(), n) * rho_matrix(A, n) == \
            IntMatrix.identity(n + 1)
    # rho_n of the 2x2 inverse inverts rho_n: W has determinant -1, and the
    # lifted basis of gamma0bar:23 has entries up to two digits
    lifted = lift_to_sl2(schreier_free_basis(23)).assignment.matrices
    for A in (GEN_W, GEN_EPS) + lifted:
        for n in (1, 4, 9):
            assert rho_matrix(A.inv(), n) * rho_matrix(A, n) == \
                IntMatrix.identity(n + 1)


def test_generator_actions_on_monomials():
    # S sends X^(n-k) Y^k to (-1)^k X^k Y^(n-k); W reverses coefficients.
    for n in range(1, 7):
        s = rho_matrix(GEN_S, n)
        w = rho_matrix(GEN_W, n)
        for k in range(n + 1):
            e = [1 if j == k else 0 for j in range(n + 1)]
            se = s.mulvec(e)
            we = w.mulvec(e)
            assert se == [(-1) ** k if j == n - k else 0 for j in range(n + 1)]
            assert we == [1 if j == n - k else 0 for j in range(n + 1)]


def test_act_on_quadratic_difference():
    # S fixes X^2 - Y^2 up to sign: P(Y, -X) = Y^2 - X^2.
    assert rho_matrix(GEN_S, 2).mulvec([1, 0, -1]) == [-1, 0, 1]
    # T^-1 substitutes (X - Y, X).
    tinv = GEN_T.inv()
    poly = sympy.Poly(sympy.expand((X - Y) ** 2 - X ** 2), X, Y)
    expect = [int(poly.coeff_monomial(X ** (2 - j) * Y ** j)) for j in range(3)]
    assert rho_matrix(tinv, 2).mulvec([1, 0, -1]) == expect


def test_eps_acts_by_parity():
    for n in range(0, 7):
        e = rho_matrix(GEN_EPS, n)
        eye = IntMatrix.identity(n + 1)
        assert e == (eye if n % 2 == 0 else -eye)


def test_eta_and_alternating_sum():
    assert [eta(n) for n in range(9)] == [1, -1, 0, 1, -1, 0, 1, -1, 0]
    for n in range(0, 61, 2):
        assert alt_diagonal_sum(n) == eta(n)


def test_rep_trace_matches_matrix_trace():
    rng = random.Random(41)
    for _ in range(20):
        A = Mat2(rng.randint(-4, 4), rng.randint(-4, 4),
                 rng.randint(-4, 4), rng.randint(-4, 4))
        n = rng.randint(0, 8)
        m = rho_matrix(A, n)
        assert rep_trace(A, n) == sum(m.data[i][i] for i in range(n + 1))


def test_trace_of_order6_inverse_is_eta():
    tinv = GEN_T.inv()
    for n in range(0, 41, 2):
        assert rep_trace(tinv, n) == eta(n)

