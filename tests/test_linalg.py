import itertools
import random
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import invariant_factors

from modh1.linalg import (
    AbelianInvariants,
    AffineMap,
    IntMatrix,
    _mod2_refutation,
    _primitive_kernel,
    _rational_forward,
    _smith,
    block_rows,
    cokernel_invariants,
    hstack,
    kernel_basis,
    kills_kernel,
    quotient_invariants,
    rank,
    row_echelon,
    smith_normal_form,
    solve_integer,
    vstack,
    xgcd,
)


def sym(M):
    return SymMatrix(M.rows, M.cols, [x for row in M.data for x in row])


def smith_s(a, snf):
    # S, the matrix of a's shape with the Smith diagonal
    d = snf.diagonal()
    return IntMatrix([[d[i] if i == j else 0 for j in range(a.cols)]
                      for i in range(a.rows)], cols=a.cols)


def sym_det(M):
    return int(sym(M).det())


def sym_invariant_factors(M):
    return [int(d) for d in invariant_factors(sym(M)) if int(d) != 0]


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


def test_xgcd():
    for a, b in [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (7, -3), (-4, -6)]:
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_matrix_basics():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert a * b == IntMatrix([[2, 1], [4, 3]])
    assert a + b - b == a
    assert (a * 2).data == [[2, 4], [6, 8]]
    assert a.mulvec([1, 1]) == [3, 7]
    assert a.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert vstack([a, b]).rows == 4
    assert hstack([a, b]).cols == 4
    for op in (a.__add__, a.__sub__):
        with pytest.raises(ValueError):
            op(IntMatrix([[1, 2]]))
    assert IntMatrix.from_columns([[1, 3], [2, 4]]) == a


def test_empty_shapes():
    e = IntMatrix([], cols=3)           # 0 x 3
    assert e.transpose().rows == 3 and e.transpose().cols == 0
    k = kernel_basis(e)                 # kernel of the empty map is everything
    assert k == IntMatrix.identity(3)
    f = IntMatrix([[], []], cols=0)     # 2 x 0
    assert f.transpose().rows == 0 and f.transpose().cols == 2
    assert (f * IntMatrix([], cols=4)) == IntMatrix.zeros(2, 4)


def test_constructor_checks_its_input():
    with pytest.raises(TypeError):
        IntMatrix([[1, 2.0]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]], cols=5)
    assert IntMatrix([[1, 2]], cols=2) == IntMatrix([[1, 2]])


BIG = 2 ** 200  # 201 bits
NONZERO = st.one_of(st.integers(1, 9), st.integers(-9, -1),
                    st.integers(BIG, BIG ** 2), st.integers(-BIG ** 2, -BIG))


@st.composite
def matrices(draw, rows, cols):
    """All-zero, sparse, full, or a signed permutation (square only)."""
    kinds = ("zero", "sparse", "full") + (("perm",) if rows == cols else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "perm":
        perm = draw(st.permutations(range(rows)))
        signs = draw(st.lists(st.sampled_from((1, -1)),
                              min_size=rows, max_size=rows))
        return IntMatrix([[signs[i] if j == perm[i] else 0
                           for j in range(cols)] for i in range(rows)])
    if kind == "zero":
        entry = st.just(0)
    elif kind == "sparse":
        entry = st.one_of(st.just(0), NONZERO)
    else:
        entry = NONZERO
    return IntMatrix(draw(st.lists(
        st.lists(entry, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)), cols=cols)


def triple_loop(a, b):
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a.data[i][k] * b.data[k][j]
    return out


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_product_matches_triple_loop(data):
    m, k, n = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = data.draw(matrices(m, k))
    b = data.draw(matrices(k, n))
    c = a * b
    assert (c.rows, c.cols) == (m, n)
    assert c.data == triple_loop(a, b)
    v = data.draw(matrices(k, 1)).column(0)
    assert a.mulvec(v) == [row[0] for row in triple_loop(
        a, IntMatrix.from_columns([v], rows=k))]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.data())
def test_affine_map_matches_triple_loop(data):
    # M*X + C, applied twice to the same map, also with empty shapes
    m, k, n = (data.draw(st.integers(0, 5)) for _ in range(3))
    M, C = data.draw(matrices(m, k)), data.draw(matrices(m, n))
    f = AffineMap(M, C)
    for _ in range(2):
        X = data.draw(matrices(k, n))
        Y = f(X)
        assert (Y.rows, Y.cols) == (m, n)
        assert Y.data == [[p + q for p, q in zip(r, s)]
                          for r, s in zip(triple_loop(M, X), C.data)]
    with pytest.raises(ValueError):
        f(IntMatrix.zeros(k + 1, n))
    with pytest.raises(ValueError):
        f(IntMatrix.zeros(k, n + 1))
    with pytest.raises(ValueError):
        AffineMap(IntMatrix.zeros(m + 1, k), C)


def test_block_rows_match_stacked_zero_blocks():
    # absent keys are zero blocks, and no relators give 0 rows; a block of
    # the wrong shape, or a key outside 0..k-1, raises ValueError
    a, b = IntMatrix([[1, 2], [3, 4]]), IntMatrix([[0, -5], [6, 0]])
    zero = IntMatrix.zeros(2, 2)
    assert block_rows([{2: a, 0: b}, {}, {1: a}], 3, 2) == vstack([
        hstack([b, zero, a]), hstack([zero] * 3), hstack([zero, a, zero])])
    assert block_rows([], 3, 2) == IntMatrix([], cols=6)
    for bad in (IntMatrix([[1, 2]]), IntMatrix([[1], [2]]),
                IntMatrix.zeros(3, 3)):
        with pytest.raises(ValueError):
            block_rows([{1: a}, {0: bad}], 3, 2)
    for g in (-1, 3):
        with pytest.raises(ValueError):
            block_rows([{g: a}], 3, 2)


RESULTS = {
    "affine": lambda a, b: AffineMap(a, b)(a),
    "a * b": lambda a, b: a * b,
    "b * a": lambda a, b: b * a,
    "a * 1": lambda a, b: a * 1,
    "a + b": lambda a, b: a + b,
    "b + a": lambda a, b: b + a,
    "a - b": lambda a, b: a - b,
    "-a": lambda a, b: -a,
    "transpose": lambda a, b: a.transpose(),
    "vstack": lambda a, b: vstack([a, b]),
    "hstack": lambda a, b: hstack([a, b]),
    "block_rows": lambda a, b: block_rows([{0: a, 1: b}, {1: a}], 2, 2),
    "identity": lambda a, b: IntMatrix.identity(2),
    "zeros": lambda a, b: IntMatrix.zeros(2, 2),
    "row_echelon": lambda a, b: row_echelon(a),
}


@pytest.mark.parametrize("op", sorted(RESULTS))
def test_results_share_no_rows(op):
    # _echelon edits rows in place, so a result row shared with an operand,
    # another row or a later result would corrupt it
    eye, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    a, b = IntMatrix(eye), IntMatrix(zero)
    c = RESULTS[op](a, b)
    before = [list(row) for row in c.data]
    for i, row in enumerate(c.data):
        row[0] += 5
        assert c.data[:i] + c.data[i + 1:] == before[:i] + before[i + 1:]
        assert a.data == eye and b.data == zero
        assert IntMatrix.identity(2).data == eye
        assert IntMatrix.zeros(2, 2).data == zero
        row[0] -= 5


def test_smith_diag_2_3():
    # gcd 1 in the corner, determinant preserved up to sign: diag(1, 6).
    a = IntMatrix([[2, 0], [0, 3]])
    snf = smith_normal_form(a)
    assert snf.diagonal() == [1, 6]
    assert snf.U * a * snf.V == smith_s(a, snf)
    assert abs(sym_det(snf.U)) == 1
    assert abs(sym_det(snf.V)) == 1


def test_kernel_row_vector():
    k = kernel_basis(IntMatrix([[1, 1]]))
    assert k.cols == 1
    assert k.column(0) == [1, -1]


def test_solve_small():
    a = IntMatrix([[2, 0], [0, 3]])
    assert solve_integer(a, [4, 9]) == [2, 3]
    assert solve_integer(a, [1, 0]) is None
    assert solve_integer(a, [0, 0]) == [0, 0]


def test_solve_brute_oracle():
    # Exhaustive cross-check on tiny systems: an integral solution with
    # entries in [-24, 24] exists iff solve_integer finds any solution.
    rng = random.Random(11)
    for _ in range(120):
        a = random_matrix(rng, 2, 2, bound=3)
        b = [rng.randint(-6, 6), rng.randint(-6, 6)]
        x = solve_integer(a, b)
        if x is not None:
            assert a.mulvec(x) == b
        else:
            found = False
            for x0 in range(-24, 25):
                for x1 in range(-24, 25):
                    if a.mulvec([x0, x1]) == b:
                        found = True
                        break
                if found:
                    break
            assert not found


def assert_smith(a, snf):
    # U*A*V = S, unimodular transforms, S diagonal, nonnegative, a chain
    assert (snf.U.rows, snf.U.cols) == (a.rows, a.rows)
    assert (snf.V.rows, snf.V.cols) == (a.cols, a.cols)
    assert snf.U * a * snf.V == smith_s(a, snf)
    assert abs(sym_det(snf.U)) == 1
    assert abs(sym_det(snf.V)) == 1
    diag = snf.diagonal()
    assert len(diag) == min(a.rows, a.cols)
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[:len(nz)] == nz
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    assert nz == sym_invariant_factors(a)


def test_smith_properties_random():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        assert_smith(a, smith_normal_form(a))


def test_kernel_properties_random():
    rng = random.Random(17)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        k = kernel_basis(a)
        assert (a * k).is_zero()
        assert k.cols == a.cols - rank(a)
        if k.cols:
            assert rank(k) == k.cols
        # saturation: no kernel vector is a nontrivial multiple of a finer one,
        # i.e. the quotient Z^cols / (ker + im-complement) has no surprise
        # torsion supported on the kernel.  Equivalent check: the Smith form of
        # the basis matrix has all invariant factors 1.
        if k.cols:
            assert sym_invariant_factors(k) == [1] * k.cols


def test_smith_lattice_against_brute_force():
    # 2x2 lattices: membership of v is decided by a search over coefficients
    # in [-36, 36], which holds a solution of these small systems when one
    # exists (|adj(a) v| <= 36).  The order is then checked through coords.
    rng = random.Random(5)
    for _ in range(60):
        a = random_matrix(rng, 2, 2, bound=3)
        lattice = smith_normal_form(a)
        members = {tuple(a.mulvec([x0, x1]))
                   for x0 in range(-36, 37) for x1 in range(-36, 37)}
        for _ in range(5):
            v = [rng.randint(-6, 6), rng.randint(-6, 6)]
            x = lattice.coords(v)
            assert (x is not None) == (tuple(v) in members)
            if x is not None:
                assert a.mulvec(x) == v
            m = lattice.order(v)
            multiples = [lattice.coords([k * y for y in v])
                         for k in range(1, 7 if m is None else m + 1)]
            assert all(x is None for x in multiples[:-1])
            if m is None:
                assert multiples[-1] is None
            else:
                assert a.mulvec(multiples[-1]) == [m * y for y in v]


def test_abelian_invariants():
    g = AbelianInvariants(2, (2, 6))
    assert str(g) == "Z^2 + Z/2 + Z/6"
    assert g.two_primary_valuation() == 2
    assert AbelianInvariants(0, (2, 4, 24)).two_primary_valuation() == 6
    assert str(AbelianInvariants(0)) == "0"
    assert AbelianInvariants(1) == AbelianInvariants(1, ())
    try:
        AbelianInvariants(0, (2, 3))
    except ValueError:
        pass
    else:
        assert False, "3 does not divide into a chain after 2"


def test_quotient_trivial_cases():
    one = IntMatrix.identity(1)
    # Z^1 / (empty generating set) = Z
    inv = quotient_invariants(one, IntMatrix([[]], cols=0))
    assert inv == AbelianInvariants(1)
    # Z^1 / 0 = Z
    inv = quotient_invariants(one, IntMatrix([[0]]))
    assert inv == AbelianInvariants(1)
    # Z^2 / (2e1, 6e2)
    inv = quotient_invariants(IntMatrix.identity(2), IntMatrix([[2, 0], [0, 6]]))
    assert inv == AbelianInvariants(0, (2, 6))


def test_quotient_rejects_outside_vectors():
    k = IntMatrix([[2], [0]])
    try:
        quotient_invariants(k, IntMatrix([[1], [0]]))
    except ValueError:
        pass
    else:
        assert False, "e1 is not in 2Z x 0"


def test_quotient_matches_sympy_on_coefficient_lattice():
    # K a kernel basis (hence a saturated lattice basis), B = K * D, so the
    # quotient is Z^k / col(D) and its invariants are the invariant factors
    # of D, cross-checked against sympy.
    rng = random.Random(23)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 5))
        k = kernel_basis(a)
        if k.cols == 0:
            continue
        d = random_matrix(rng, k.cols, rng.randint(1, k.cols + 1), bound=4)
        inv = quotient_invariants(k, k * d)
        facs = sym_invariant_factors(d)
        assert inv.free_rank == k.cols - len(facs)
        assert list(inv.torsion) == [f for f in facs if f > 1]


@st.composite
def int_matrices(draw):
    """Shapes 0..7 by 0..7, or tall stacks of square blocks like B."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        rows, cols = d * draw(st.integers(1, 3)), d
    else:
        rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    bound = draw(st.sampled_from((1, 4, 100)))
    entry = st.integers(-bound, bound)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return IntMatrix(data, cols=cols)


class TestNormalFormProperties:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(a=int_matrices())
    def test_smith(self, a):
        assert_smith(a, smith_normal_form(a))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(a=int_matrices())
    def test_rank_matches_sympy(self, a):
        assert rank(a) == sym(a).rank()
        assert rank(a) == smith_normal_form(a).rank()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(a=int_matrices())
    def test_lattice_readings(self, a):
        # U is inverted exactly by sympy, and the columns of U^-1 are a
        # Smith basis of Z^rows: A V[:, i] is d_i times column i, which has
        # order d_i modulo the lattice, and the columns past the rank have
        # infinite order and complete the lattice to a sublattice of full
        # rank
        lattice = smith_normal_form(a)
        inv = sym(lattice.U).inv()
        u_inv = IntMatrix([[int(inv[i, j]) for j in range(a.rows)]
                           for i in range(a.rows)], cols=a.rows)
        assert u_inv * lattice.U == IntMatrix.identity(a.rows)
        r = lattice.rank()
        for i, d in enumerate(lattice.diagonal()[:r]):
            col = u_inv.column(i)
            assert a.mulvec(lattice.V.column(i)) == [d * x for x in col]
            assert lattice.order(col) == d
        free = [u_inv.column(i) for i in range(r, a.rows)]
        assert all(lattice.order(v) is None for v in free)
        stacked = hstack([a, IntMatrix.from_columns(free, rows=a.rows)])
        assert rank(stacked) == a.rows


@st.composite
def deficient_matrices(draw):
    """Low rank products X*Y, with zero rows and columns spliced in."""
    rows, inner, cols = (draw(st.integers(0, 6)), draw(st.integers(0, 2)),
                         draw(st.integers(0, 6)))
    entry = st.integers(-draw(st.sampled_from((1, 9))), 9)
    x = IntMatrix(draw(st.lists(st.lists(entry, min_size=inner,
                                         max_size=inner),
                                min_size=rows, max_size=rows)), cols=inner)
    y = IntMatrix(draw(st.lists(st.lists(entry, min_size=cols,
                                         max_size=cols),
                                min_size=inner, max_size=inner)), cols=cols)
    data = (x * y).data
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(data)))
        data.insert(i, [0] * cols)
    j = draw(st.integers(0, cols))
    if draw(st.booleans()):
        data = [row[:j] + [0] + row[j:] for row in data]
        cols += 1
    return IntMatrix(data, cols=cols)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=st.one_of(int_matrices(), deficient_matrices()), data=st.data())
def test_row_echelon(a, data):
    # one nonzero row per unit of rank, in echelon form under the column
    # order the sweep picks (each row has a pivot column where every
    # later row is 0; pivot columns need not rise), spanning the rational
    # row space of a (its row lattice is not promised), so that E*b = 0
    # exactly when A*b = 0; sympy is the oracle
    e = row_echelon(a)
    assert e.cols == a.cols
    kernel = sym(a).nullspace()
    r = a.cols - len(kernel)
    assert e.rows == rank(a) == r
    for i, row in enumerate(e.data):
        assert any(x and not any(later[j] for later in e.data[i + 1:])
                   for j, x in enumerate(row))
    # a's rows and e's together have a's rank, so e spans a's row space
    assert a.cols - len(sym(vstack([a, e])).nullspace()) == r
    # b is a combination of sympy's rational kernel vectors scaled to
    # integers, then the same vector with one entry moved
    b = SymMatrix.zeros(a.cols, 1)
    for v in kernel:
        b += data.draw(st.integers(-3, 3)) * v
    den = lcm(*(x.q for x in b))
    b = [int(x * den) for x in b]
    vectors = [b]
    if a.cols:
        moved = list(b)
        moved[data.draw(st.integers(0, a.cols - 1))] += data.draw(
            st.integers(1, 9))
        vectors.append(moved)
    for v in vectors:
        col = IntMatrix.from_columns([v], rows=a.cols)
        assert (e * col).is_zero() == (a * col).is_zero()
    assert (a * IntMatrix.from_columns([b], rows=a.cols)).is_zero()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=st.one_of(int_matrices(), deficient_matrices()), data=st.data())
def test_kills_kernel_exactly_on_the_row_space(a, data):
    # kills_kernel reduces v against a's echelon; sympy's rational
    # nullspace is the oracle.  v is an integer combination of a's rows, which kills
    # the kernel, or such a combination with one entry moved.
    c = data.draw(st.lists(st.integers(-5, 5), min_size=a.rows,
                           max_size=a.rows))
    v = a.transpose().mulvec(c)
    if a.cols and data.draw(st.booleans()):
        v[data.draw(st.integers(0, a.cols - 1))] += data.draw(
            st.integers(1, 9))
    kills = all(sum(x * y for x, y in zip(v, n)) == 0
                for n in sym(a).nullspace())
    assert kills_kernel(a, v) == kills


def test_mod2_refutation_against_brute_force():
    # b lies in the F_2 column span of a exactly when some 0/1 combination
    # of a's columns is b mod 2; otherwise the helper's u is a 0/1 vector
    # with u.a = 0 and u.b = 1 (mod 2)
    rng = random.Random(11)
    for _ in range(400):
        rows, cols = rng.randint(0, 6), rng.randint(0, 5)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(cols)]
                       for _ in range(rows)], cols=cols)
        b = [rng.randint(-3, 3) for _ in range(rows)]
        span = {tuple(y % 2 for y in a.mulvec(x))
                for x in itertools.product((0, 1), repeat=cols)}
        u = _mod2_refutation(a, b)
        assert (u is None) == (tuple(y % 2 for y in b) in span)
        if u is not None:
            assert len(u) == rows and set(u) <= {0, 1}
            assert all(y % 2 == 0 for y in a.transpose().mulvec(u))
            assert sum(x * y for x, y in zip(u, b)) % 2 == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.one_of(int_matrices(), deficient_matrices(),
                   st.sampled_from([IntMatrix.zeros(r, c)
                                    for r in range(3) for c in range(3)])))
def test_primitive_kernel_matches_sympy(a):
    # one primitive integer vector of ker(a) per free column, spanning the
    # same rational space as sympy's nullspace: 0 x n, n x 0, rank
    # deficient, wide and tall shapes
    vectors = _primitive_kernel(a)
    kernel = sym(a).nullspace() if a.cols else []
    assert len(vectors) == len(kernel)
    for v in vectors:
        assert len(v) == a.cols
        assert not any(a.mulvec(v))
        assert gcd(*v) == 1
    if vectors:
        mine = SymMatrix([list(v) for v in vectors]).T
        assert mine.rank() == len(vectors)
        assert SymMatrix.hstack(mine, *kernel).rank() == len(vectors)


def test_primitive_kernel_with_pivots_out_of_index_order():
    # the sweep pivots on the light columns 1 and 2 first, and leaves the
    # 2 above row 1's pivot unreduced; back-substitution from the last
    # pivot row scales the vector by 3 at free column 0, then solves row 0
    a = IntMatrix([[4, 1, 2], [8, 0, 3]])
    rows = [list(row) for row in a.data]
    assert _rational_forward(rows, 3) == [1, 2]
    assert rows[0] == [4, 1, 2]
    assert _primitive_kernel(a) == [[3, 4, -8]]


@st.composite
def unit_heavy_matrices(draw):
    """U*D*V with D's diagonal drawn from 1, -1, 2, 3, 6 and 0, and U, V
    unimodular: upper unitriangular, U's rows shuffled.  A Hermite pass
    then meets unit pivots with entries above them and to their right."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    diag = draw(st.lists(st.sampled_from((1, -1, 2, 3, 6, 0)),
                         min_size=min(rows, cols), max_size=min(rows, cols)))
    d = IntMatrix([[diag[i] if i == j else 0 for j in range(cols)]
                   for i in range(rows)], cols=cols)
    u = draw(st.permutations(unitriangular(draw, rows).data))
    return IntMatrix(u, cols=rows) * d * unitriangular(draw, cols)


def unitriangular(draw, n):
    return IntMatrix([[int(i == j) if j <= i else draw(st.integers(-3, 3))
                       for j in range(n)] for i in range(n)], cols=n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.one_of(unit_heavy_matrices(), deficient_matrices(),
                   st.sampled_from([IntMatrix.zeros(r, c)
                                    for r in range(3) for c in range(3)])))
def test_cokernel_invariants_match_sympy(a):
    # unit pivots split off after one Hermite pass; sympy's invariant
    # factors of the whole matrix are the oracle, zero rows past the rank
    # counting towards the free rank
    facs = sym_invariant_factors(a) if a.rows and a.cols else []
    assert cokernel_invariants(a) == AbelianInvariants(
        a.rows - len(facs), [d for d in facs if d > 1])


class TestSmithWithoutU:
    """kernel_basis and cokernel_invariants reduce A's bare rows, the full
    Smith form the rows of [A | I].  The Smith form behind
    cokernel_invariants carries no transform and must give the same
    diagonal; kernel_basis must give the full form's V past the rank."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=st.one_of(int_matrices(), deficient_matrices()))
    def test_same_diagonal_and_v(self, a):
        bare, full = _smith(a, False), smith_normal_form(a)
        assert bare.U is None and bare.V is None
        assert bare.diagonal() == full.diagonal()
        diag = full.diagonal()
        assert cokernel_invariants(a) == AbelianInvariants(
            a.rows - full.rank(), [d for d in diag if d > 1])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=st.one_of(int_matrices(), deficient_matrices()))
    @example(a=IntMatrix([[-3, -2, 1, 0], [0, 0, -1, -1]]))
    def test_kernel_basis_unchanged(self, a):
        # as before: the columns of the full form's V past the rank, each
        # with its first nonzero entry made positive; the example's kernel
        # basis changes if the row pass skips its back-reduction
        full = smith_normal_form(a)
        expected = []
        for j in range(full.rank(), a.cols):
            col = full.V.column(j)
            lead = next(x for x in col if x)
            expected.append([-x for x in col] if lead < 0 else col)
        k = kernel_basis(a)
        assert k == IntMatrix.from_columns(expected, rows=a.cols)
        assert (a * k).is_zero()

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            a = IntMatrix.zeros(rows, cols)
            assert smith_normal_form(a).U == IntMatrix.identity(rows)
            assert kernel_basis(a) == IntMatrix.identity(cols)
            assert cokernel_invariants(a) == AbelianInvariants(rows)
