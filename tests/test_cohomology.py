"""Tests for the H^1 pipeline.

The independent oracle for ranks over the projective modular group is the
free product decomposition: for G = A * B acting on M there is an exact
sequence 0 -> M/(M^A + M^B) -> H^1(G, M) -> H^1(A, M) + H^1(B, M) -> 0
with both end terms computable from single-matrix kernels and cokernels.
The middle rank equals the rank of M/(M^A + M^B) because the right term is
finite.  That route never touches the presentation machinery.
"""

import json
import random
from collections import Counter
from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy import Matrix as SymMatrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

import modh1.cohomology as cohomology
import modh1.linalg as linalg
import modh1.presentations as presentations
from modh1.cli import main
from modh1.cohomology import (
    _beps_column,
    _is_cocycle,
    _payload_letters,
    CERT_MAX_COST,
    CERT_MAX_DEGREE,
    Certificate,
    ClaimRefused,
    Cocycle,
    beps_relation_lattice,
    certify_noncoboundary,
    certify_nonextendable,
    check_cost,
    check_degree,
    class_order,
    coboundary_matrix,
    cocycle_basis,
    h1,
    make_ba,
    make_beps,
    normalized_cocycle_dim,
    normalized_sym_dim,
    rank_gl2,
    rank_psl2,
    cokernel_rank,
    restrict,
    restriction_cokernel,
    restriction_image_matrix,
    t_fixed_dim,
    t_fixed_sym_dim,
    beps_count,
    w_invariant_h1_rank,
)
from modh1.congruence import lift_to_sl2, schreier_free_basis
from modh1.linalg import (
    AbelianInvariants,
    IntMatrix,
    hstack,
    kernel_basis,
    quotient_invariants,
    rank,
    smith_normal_form,
    solve_integer,
    vstack,
)
from modh1.polyrep import GEN_EPS, GEN_S, GEN_T, GEN_W, Mat2, rho_matrix
from modh1.presentations import (
    MatrixAssignment,
    Overgroup,
    Presentation,
    Word,
    builtin,
    evaluate_word,
    fox_jacobian,
    pull_back_functional,
    relator_condition_matrix,
    transport_blocks,
)


def fixed_sublattice(mat):
    return kernel_basis(mat - IntMatrix.identity(mat.rows))


def free_product_h1_rank(n):
    # rank of M/(M^S + M^T) for the two projective generators
    S = rho_matrix(GEN_S, n)
    T = rho_matrix(GEN_T, n)
    span = hstack([fixed_sublattice(S), fixed_sublattice(T)])
    d = n + 1
    inv = quotient_invariants(IntMatrix.identity(d), span)
    return inv.free_rank


def cyclic_h1(mat, order):
    # H^1(Z/order, M) = ker(norm) / im(mat - 1)
    d = mat.rows
    norm = IntMatrix.identity(d)
    acc = IntMatrix.identity(d)
    for _ in range(order - 1):
        acc = acc * mat
        norm = norm + acc
    K = kernel_basis(norm)
    return quotient_invariants(K, mat - IntMatrix.identity(d))


def torsion_classes(pres, rep):
    # (cocycle, d) over the diagonal entries d > 1 of the Smith form
    # U B V = S of the coboundary matrix: B V[:, i] / d_i is column i of
    # U^-1, whose class modulo B^1 has order d_i; these classes generate
    # the torsion of Z^N / B^1, which is that of H^1, as Z^1 is saturated
    B = coboundary_matrix(rep)
    snf = smith_normal_form(B)
    out = []
    for i, d in enumerate(snf.diagonal()):
        if d > 1:
            col = B.mulvec(snf.V.column(i))
            assert all(x % d == 0 for x in col)
            out.append((Cocycle.from_stacked(pres, [x // d for x in col],
                                             rep[0].rows), d))
    return out


def unit_complement(pres, rep):
    # the unit cocycles, in order, that each raise the rank of B with the
    # units taken before them; for a free group, whose Z^1 is all of Z^N,
    # their classes are a basis of H^1 over the rationals
    B = coboundary_matrix(rep)
    cols, units = B.columns(), []
    for j in range(B.rows):
        e = [int(i == j) for i in range(B.rows)]
        if rank(IntMatrix.from_columns(cols + [e])) > len(units) + rank(B):
            cols.append(e)
            units.append(Cocycle.from_stacked(pres, e, rep[0].rows))
    return units


class TestSmallGroupsByHand:
    def test_cyclic_two_swap_action(self):
        # <s | s^2> acting by the swap on Z^2: H^1 = 0
        pres = Presentation("c2", ["s"], [])
        pres = Presentation("c2", ["s"], [pres.parse_word("s s")])
        rep = MatrixAssignment([GEN_W]).rep(1)
        assert h1(pres, rep).is_trivial()

    def test_cyclic_two_negation_action(self):
        # <s | s^2> acting by -1 on Z^2: every vector is a cocycle and
        # B^1 = 2 Z^2, so H^1 = (Z/2)^2, and each nonzero class mod 2 has
        # order 2
        pres = Presentation("c2", ["s"], [])
        pres = Presentation("c2", ["s"], [pres.parse_word("s s")])
        rep = MatrixAssignment([GEN_EPS]).rep(1)
        inv = h1(pres, rep)
        assert inv.free_rank == 0
        assert inv.torsion == (2, 2)
        for v, order in (([1, 0], 2), ([0, 1], 2), ([1, 1], 2), ([3, -1], 2),
                         ([2, 0], 1), ([2, -4], 1)):
            assert class_order(pres, rep, Cocycle(pres, [v])) == order

    def test_free_rank_one_shear_action(self):
        # free group on one letter, shear action: B^1 = Z (1, 0), so
        # H^1 = Z^2 / B^1 = Z, generated by the class of (0, 1)
        pres = Presentation("z", ["a"], [])
        rep = MatrixAssignment([Mat2(1, 1, 0, 1)]).rep(1)
        inv = h1(pres, rep)
        assert inv.free_rank == 1
        assert inv.torsion == ()
        b = Cocycle(pres, [[0, 1]])
        assert class_order(pres, rep, b) is None
        assert solve_integer(coboundary_matrix(rep), b.stacked()) is None
        assert class_order(pres, rep, Cocycle(pres, [[1, 0]])) == 1


class TestModularGroupH1:
    def test_degree_two_by_hand(self):
        # Hand computation: rank 1, and b(S) = XY, b(T) = 0 is a valid
        # cocycle whose doubling is (rho - 1)(X^2 - XY + Y^2), giving an
        # order 2 class; the free product sequence then forces Z + Z/2.
        pres, assignment = builtin("psl2")
        inv = h1(pres, assignment.rep(2))
        assert inv.free_rank == 1
        assert inv.torsion == (2,)
        xy = Cocycle(pres, [[0, 1, 0], [0, 0, 0]])
        assert class_order(pres, assignment.rep(2), xy) == 2

    def test_corrupted_relator_matrix_is_caught(self, monkeypatch):
        # one wrong entry of R puts the coboundaries outside its kernel,
        # and h1, which checks them on R's echelon rows, must say so
        pres, assignment = builtin("gl2")
        rep = assignment.rep(6)
        R = relator_condition_matrix(pres, rep)
        j = next(j for j, row in enumerate(coboundary_matrix(rep).data)
                 if any(row))
        for i in (0, R.rows // 2, R.rows - 1):
            data = [list(row) for row in R.data]
            data[i][j] += 1
            monkeypatch.setattr(cohomology, "relator_condition_matrix",
                                lambda p, r: IntMatrix(data))
            with pytest.raises(RuntimeError, match="coboundaries outside "
                                                   "the cocycle lattice"):
                h1(pres, rep)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
    def test_rank_against_free_product_route(self, n):
        pres, assignment = builtin("psl2")
        inv = h1(pres, assignment.rep(n))
        assert inv.free_rank == free_product_h1_rank(n)
        assert inv.free_rank == rank_psl2(n)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
    def test_torsion_order_bounded_by_free_product_terms(self, n):
        pres, assignment = builtin("psl2")
        inv = h1(pres, assignment.rep(n))
        S = rho_matrix(GEN_S, n)
        T = rho_matrix(GEN_T, n)
        span = hstack([fixed_sublattice(S), fixed_sublattice(T)])
        mid = quotient_invariants(IntMatrix.identity(n + 1), span)
        bound = prod(mid.torsion) * prod(cyclic_h1(S, 2).torsion) \
            * prod(cyclic_h1(T, 3).torsion)
        assert bound % prod(inv.torsion) == 0

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_sl2_matches_psl2(self, n):
        p1, a1 = builtin("psl2")
        p2, a2 = builtin("sl2")
        assert h1(p1, a1.rep(n)) == h1(p2, a2.rep(n))

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_odd_degree_is_elementary_two_torsion(self, n):
        pres, assignment = builtin("sl2")
        inv = h1(pres, assignment.rep(n))
        assert inv.free_rank == 0
        assert all(t == 2 for t in inv.torsion)
        assert len(inv.torsion) <= n + 1
        if n == 1:
            assert inv.is_trivial()

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_swap_extension_rank_three_ways(self, n):
        pres, assignment = builtin("gl2")
        inv = h1(pres, assignment.rep(n))
        assert inv.free_rank == rank_gl2(n)
        assert inv.free_rank == w_invariant_h1_rank(n)

    def test_swap_extension_first_positive_rank(self):
        assert rank_gl2(10) == 1
        assert rank_gl2(12) == 0
        assert [n for n in range(2, 41, 2) if rank_gl2(n)] \
            == [n for n in range(2, 41, 2) if w_invariant_h1_rank(n)]

    def test_basis_cocycles_have_claimed_orders(self):
        # the torsion classes read off the Smith form of B, and a cocycle
        # of the free class b_1, have the orders class_order finds
        pres, assignment = builtin("sl2")
        rep = assignment.rep(6)
        classes = torsion_classes(pres, rep)
        assert [d for _, d in classes] == list(h1(pres, rep).torsion)
        for c, order in classes:
            assert class_order(pres, rep, c) == order
        assert class_order(pres, rep, make_ba(6, 1)) is None


# Projective presentations act only in even degree.
CROSS_CHECK_CASES = [(g, n) for g in ("psl2", "sl2", "pgl2", "gl2")
                     for n in range(1, 25) if g in ("sl2", "gl2") or n % 2 == 0]


class TestInvariantRoutes:
    """h1 reads its invariants off one Smith form of B, the stacked
    (rho(g) - 1).  Two other routes recompute them: the quotient Z^1 / B^1
    in coordinates of a kernel basis (Smith forms of K and of the coordinate
    matrix), and sympy's invariant factors of B with sympy's rank of R."""

    @pytest.mark.parametrize("group,n", CROSS_CHECK_CASES)
    def test_invariants_and_torsion_generators(self, group, n):
        pres, assignment = builtin(group)
        rep = assignment.rep(n)
        inv = h1(pres, rep)
        B = coboundary_matrix(rep)
        R = relator_condition_matrix(pres, rep)
        assert inv == quotient_invariants(cocycle_basis(pres, rep), B)
        factors = [int(f) for f in invariant_factors(SymMatrix(B.data)) if f]
        rank_r = DomainMatrix.from_list(R.data, ZZ).convert_to(QQ).rank()
        free = B.rows - rank_r - len(factors)
        assert inv == AbelianInvariants(free, [f for f in factors if f > 1])
        classes = torsion_classes(pres, rep)
        assert [order for _, order in classes] == list(inv.torsion)
        for c, order in classes:
            assert R.mulvec(c.stacked()) == [0] * R.rows
            assert class_order(pres, rep, c) == order

    def test_free_basis_of_free_group(self):
        pres, assignment = builtin("free:2")
        rep = assignment.rep(2)
        units = unit_complement(pres, rep)
        assert h1(pres, rep).free_rank == len(units) == 3
        for c in units:
            assert class_order(pres, rep, c) is None

    def test_free_basis_of_congruence_lift(self):
        lift = lift_to_sl2(schreier_free_basis(11))
        rep = lift.assignment.rep(1)
        units = unit_complement(lift.presentation, rep)
        assert h1(lift.presentation, rep).free_rank == len(units) == 4
        for c in units:
            assert class_order(lift.presentation, rep, c) is None


class TestDimensionFormulas:
    # (n, dim of T-fixed forms, dim of normalized cocycle values)
    TABLE = [(2, 1, 2), (4, 1, 2), (6, 3, 4)]

    @pytest.mark.parametrize("n,n_fixed,m_norm", TABLE)
    def test_small_table(self, n, n_fixed, m_norm):
        assert t_fixed_dim(n) == n_fixed
        assert normalized_cocycle_dim(n) == m_norm

    @pytest.mark.parametrize("n", list(range(2, 41, 2)))
    def test_formulas_match_kernels(self, n):
        d = n + 1
        eye = IntMatrix.identity(d)
        S = rho_matrix(GEN_S, n)
        T = rho_matrix(GEN_T, n)
        W = rho_matrix(GEN_W, n)
        assert t_fixed_dim(n) == d - rank(T - eye)
        assert normalized_cocycle_dim(n) == d - rank(S + eye)
        assert normalized_sym_dim(n) == d - rank(vstack([S + eye, W - eye]))
        assert t_fixed_sym_dim(n) == d - rank(vstack([T - eye, W - eye]))

    @pytest.mark.parametrize("n", list(range(2, 41, 2)))
    def test_rank_is_dimension_difference(self, n):
        assert rank_psl2(n) == normalized_cocycle_dim(n) - t_fixed_dim(n)
        assert rank_gl2(n) == normalized_sym_dim(n) - t_fixed_sym_dim(n)

    @pytest.mark.parametrize("n", list(range(2, 101, 2)))
    def test_closed_forms_are_integral(self, n):
        # each helper raises ArithmeticError if its numerator is not
        # divisible; this sweep is the regression test for that
        rank_psl2(n)
        rank_gl2(n)
        cokernel_rank(n)
        normalized_cocycle_dim(n)
        t_fixed_dim(n)
        normalized_sym_dim(n)
        t_fixed_sym_dim(n)
        assert rank_psl2(n) == rank_gl2(n) + cokernel_rank(n)

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            rank_psl2(3)


class TestExplicitCocycles:
    def test_ba_is_cocycle_not_coboundary(self):
        b = make_ba(2, 1)
        pres, assignment = builtin("sl2")
        rep = assignment.rep(2)
        assert solve_integer(coboundary_matrix(rep), b.stacked()) is None
        assert class_order(pres, rep, b) is None

    def test_ba_scales_linearly(self):
        assert (make_ba(4, 3).stacked()
                == [3 * x for x in make_ba(4, 1).stacked()])

    def test_ba_value_lies_in_antisymmetric_kernel(self):
        for n in (2, 4, 6, 8):
            b = make_ba(n, 1)
            S = rho_matrix(GEN_S, n)
            v = list(b.values[0])
            assert (S + IntMatrix.identity(n + 1)).mulvec(v) == [0] * (n + 1)

    # class orders of the unit eps cocycles, computed once and frozen;
    # they are not order 2 in general, and are infinite as soon as the
    # free rank is positive (first at n = 10)
    UNIT_ORDERS = {2: [2], 4: [4], 6: [12, 4], 8: [24, 6],
                   10: [None, None, None]}

    @pytest.mark.parametrize("n", sorted(UNIT_ORDERS))
    def test_beps_units_against_frozen_orders(self, n):
        pres, assignment = builtin("gl2")
        rep = assignment.rep(n)
        m = beps_count(n)
        orders = []
        for k in range(m):
            eps = [0] * m
            eps[k] = 1
            b = make_beps(n, eps)
            assert solve_integer(coboundary_matrix(rep), b.stacked()) is None
            orders.append(class_order(pres, rep, b))
        assert orders == self.UNIT_ORDERS[n]

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_beps_pairwise_distinct_exhaustively(self, n):
        # differences of distinct 0/1 vectors have entries in {-1, 0, 1}
        _, assignment = builtin("gl2")
        rep = assignment.rep(n)
        m = beps_count(n)
        deltas = [[]]
        for _ in range(m):
            deltas = [d + [x] for d in deltas for x in (-1, 0, 1)]
        for delta in deltas:
            if all(x == 0 for x in delta):
                continue
            b = make_beps(n, delta)
            assert solve_integer(coboundary_matrix(rep), b.stacked()) is None

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_beps_relation_lattice_is_even(self, n):
        lat = beps_relation_lattice(n)
        assert all(x % 2 == 0 for row in lat.data for x in row)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_two_primary_torsion_bound(self, n):
        # distinct 0/1 classes force the 2-part of the torsion to 2^m at
        # least; the count of even factors alone drops below m from n = 10
        pres, assignment = builtin("gl2")
        inv = h1(pres, assignment.rep(n))
        assert inv.two_primary_valuation() >= beps_count(n)

    def test_beps_linear_in_eps(self):
        a = make_beps(6, [1, 0])
        b = make_beps(6, [0, 1])
        c = make_beps(6, [1, 1])
        assert (a + b).values == c.values


class TestRestriction:
    def sl2_in_gl2(self):
        gp, ga = builtin("gl2")
        sp, sa = builtin("sl2")
        words = (gp.parse_word("s"), gp.parse_word("t"))
        return gp, ga, sp, sa, words

    def test_identity_embedding_restricts_to_itself(self):
        gp, ga, sp, sa, words = self.sl2_in_gl2()
        b = make_beps(2, [1])
        r = restrict(b, words, sp, ga.rep(2))
        assert list(r.values[0]) == list(b.values[0])
        assert list(r.values[1]) == list(b.values[1])

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_cokernel_rank_formula(self, n):
        gp, ga, sp, sa, words = self.sl2_in_gl2()
        inv = restriction_cokernel(gp, ga.rep(n), sp, sa.rep(n), words)
        assert inv.free_rank == cokernel_rank(n)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_cokernel_against_quotient_route(self, n):
        # free rank and torsion against the coordinates of [RZ | B_sub] in
        # a kernel basis of the subgroup's Z^1, a route with no saturation
        # argument
        gp, ga, sp, sa, words = self.sl2_in_gl2()
        sub_rep = sa.rep(n)
        RZ = restriction_image_matrix(gp, ga.rep(n), words)
        expected = quotient_invariants(
            cocycle_basis(sp, sub_rep),
            hstack([RZ, coboundary_matrix(sub_rep)]))
        assert restriction_cokernel(gp, ga.rep(n), sp, sub_rep,
                                    words) == expected

    def test_corrupted_restriction_image_is_caught(self, monkeypatch):
        # one wrong entry of RZ, in a row where the subgroup's relator
        # matrix has a nonzero column, puts a column outside the subgroup's
        # cocycle lattice, and restriction_cokernel must say so
        gp, ga, sp, sa, words = self.sl2_in_gl2()
        n = 10
        sub_rep = sa.rep(n)
        RZ = restriction_image_matrix(gp, ga.rep(n), words)
        R = relator_condition_matrix(sp, sub_rep)
        live = [i for i in range(R.cols) if any(row[i] for row in R.data)]
        for i in (live[0], live[-1]):
            for j in (0, RZ.cols - 1):
                data = [list(row) for row in RZ.data]
                data[i][j] += 1
                monkeypatch.setattr(cohomology, "restriction_image_matrix",
                                    lambda *a, data=data: IntMatrix(data))
                with pytest.raises(RuntimeError, match="outside the cocycle "
                                                       "lattice"):
                    restriction_cokernel(gp, ga.rep(n), sp, sub_rep, words)

    def test_restricted_swap_cocycle_keeps_its_order(self):
        # frozen from a direct computation: the order 4 class at n = 4
        # restricts to an order 4 class
        gp, ga, sp, sa, words = self.sl2_in_gl2()
        b = make_beps(4, [1])
        r = restrict(b, words, sp, ga.rep(4))
        assert class_order(gp, ga.rep(4), b) == 4
        assert class_order(sp, sa.rep(4), r) == 4


def _restricted(jacobian, Z, d):
    # The Fox-Jacobian route the block walk replaced: row block i is the
    # sum over g of J_g(w_i) times row block g of Z.
    rows = []
    for blocks, _ in jacobian:
        part = IntMatrix.zeros(d, Z.cols)
        for g, J in blocks.items():
            part = part + J * IntMatrix(Z.data[g * d:(g + 1) * d], cols=Z.cols)
        rows.extend(part.data)
    return IntMatrix(rows, cols=Z.cols)


def exact_inverse(m):
    # sympy's exact inverse, independent of the 2x2 route the library takes
    return IntMatrix(_sympy_inverse(tuple(map(tuple, m.data))))


@lru_cache(maxsize=None)
def _sympy_inverse(rows):
    inv = SymMatrix(rows).inv()
    return [[int(inv[i, j]) for j in range(len(rows))]
            for i in range(len(rows))]


def rho_of(word, rep):
    # rho(word) multiplied out letter by letter, with sympy's inverses
    out = IntMatrix.identity(rep.n + 1)
    for g, s in word.letters:
        out = out * (rep[g] if s == 1 else exact_inverse(rep[g]))
    return out


def reference_restrict(cocycle, words, sub_presentation, ambient_rep):
    # restrict through the Fox Jacobians, checked with the subgroup's
    # relator condition matrix on rho of the embedding words; the relators
    # spelled in the ambient generators are multiplied out d x d
    d = ambient_rep.n + 1
    Z = IntMatrix.from_columns([cocycle.stacked()])
    out = Cocycle.from_stacked(sub_presentation, _restricted(
        fox_jacobian(words, ambient_rep), Z, d).column(0), d)
    for rel in sub_presentation.relators:
        spelled = Word(x for g, s in rel.letters for x in (
            words[g] if s == 1 else words[g].inverse()).letters)
        if rho_of(spelled, ambient_rep) != IntMatrix.identity(d):
            raise ValueError("representation does not satisfy relator")
    ambient = ambient_rep.assignment.matrices
    sub_rep = MatrixAssignment(
        [evaluate_word(w, ambient) for w in words]).rep(ambient_rep.n)
    assert list(sub_rep) == [rho_of(w, ambient_rep) for w in words]
    R = relator_condition_matrix(sub_presentation, sub_rep)
    if any(R.mulvec(out.stacked())):
        raise RuntimeError("restriction produced a non-cocycle")
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, RuntimeError) as e:
        return type(e)


@st.composite
def gl2_elements(draw):
    # a product of up to five shears, swaps and sign changes in GL_2(Z)
    m = Mat2.identity()
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(-3, 3))
        m = m * draw(st.sampled_from((Mat2(1, k, 0, 1), Mat2(1, 0, k, 1),
                                      GEN_W, Mat2(-1, 0, 0, 1))))
    return m


def words_over(k, max_words=3):
    letter = st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1)))
    return st.lists(st.lists(letter, max_size=10).map(Word), min_size=1,
                    max_size=max_words)


def vectors(d, count):
    return st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d),
                    min_size=count, max_size=count)


class TestTransportWalk:
    """The block walk against the Fox-Jacobian route it replaced."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_fox_route_on_random_reps(self, data):
        k, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        rep = MatrixAssignment(
            [data.draw(gl2_elements()) for _ in range(k)]).rep(d - 1)
        pres = Presentation("free", ["g%d" % i for i in range(k)], ())
        words = data.draw(words_over(k))
        assert restriction_image_matrix(pres, rep, words) == _restricted(
            fox_jacobian(words, rep), cocycle_basis(pres, rep), d)
        b = Cocycle(pres, data.draw(vectors(d, k)))
        Z = IntMatrix.from_columns([b.stacked()])
        assert vstack(transport_blocks(words, rep, Z)) == _restricted(
            fox_jacobian(words, rep), Z, d)
        sub = Presentation("sub", ["x%d" % i for i in range(len(words))], ())
        assert restrict(b, words, sub, rep) == reference_restrict(
            b, words, sub, rep)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_pull_back_is_the_adjoint(self, data):
        # u.X = v.Z for X the stacked values on the words of the cocycles
        # in Z's columns, and v the functional u pulled back along them
        k, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        rep = MatrixAssignment(
            [data.draw(gl2_elements()) for _ in range(k)]).rep(d - 1)
        words = data.draw(words_over(k))
        cols = data.draw(st.integers(1, 3))
        Z = IntMatrix.from_columns(data.draw(vectors(k * d, cols)))
        # some word blocks of u left zero, as in most refutations
        u = [x for block in data.draw(vectors(d, len(words)))
             for x in (block if data.draw(st.booleans()) else [0] * d)]
        v = pull_back_functional(words, rep, u)
        X = vstack(transport_blocks(words, rep, Z))
        assert X.transpose().mulvec(u) == Z.transpose().mulvec(v)

    @pytest.mark.parametrize("group", ["psl2", "sl2", "pgl2", "gl2"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_fox_route_on_builtin_groups(self, group, data):
        pres, assign = builtin(group)
        k = len(pres.generators)
        n = data.draw(st.integers(0, 4))
        rep = assign.rep(n)
        values = data.draw(vectors(n + 1, k))
        try:
            R = relator_condition_matrix(pres, rep)
        except ValueError:
            # projective groups at odd degree
            with pytest.raises(ValueError):
                _is_cocycle(pres, rep, Cocycle(pres, values))
            return
        K = cocycle_basis(pres, rep)
        if data.draw(st.booleans()) and K.cols:
            # a cocycle: an integer combination of the Z^1 basis
            c = data.draw(vectors(K.cols, 1))[0]
            b = Cocycle.from_stacked(pres, K.mulvec(c), n + 1)
        else:
            b = Cocycle(pres, values)
        assert _is_cocycle(pres, rep, b) == (
            not any(R.mulvec(b.stacked())))
        # restrict to the group itself along conjugated generators, where
        # the relators hold, or along random words, where they need not
        u = data.draw(words_over(k, 1))[0]
        if data.draw(st.booleans()):
            words = [u * Word([(g, 1)]) * u.inverse() for g in range(k)]
        else:
            words = [data.draw(words_over(k, 1))[0] for _ in range(k)]
        assert restriction_image_matrix(pres, rep, words) == _restricted(
            fox_jacobian(words, rep), K, n + 1)
        assert outcome(restrict, b, words, pres, rep) == outcome(
            reference_restrict, b, words, pres, rep)

    @pytest.mark.parametrize("group", ["psl2", "pgl2"])
    def test_projective_odd_degree_raises(self, group):
        pres, assign = builtin(group)
        for n in (1, 3, 5):
            rep = assign.rep(n)
            b = Cocycle(pres, [[0] * (n + 1)] * len(pres.generators))
            with pytest.raises(ValueError, match="does not satisfy relator"):
                _is_cocycle(pres, rep, b)

    def test_value_length_checked(self):
        # as the relator matrix's mulvec did, also with no relators
        for name in ("sl2", "free:2"):
            pres, assign = builtin(name)
            b = Cocycle(pres, [[1, 2, 3, 4]] * len(pres.generators))
            with pytest.raises(ValueError):
                _is_cocycle(pres, assign.rep(2), b)


# The report written, before the refutation checks were ordered cheapest
# first, for a free-lift:11 certificate at degree 1 with one overgroup's
# functional zeroed or cut short; each overgroup's checks are relators,
# embedding, refutation.  The genuine functional, the smallest vector of
# ker(B_sub^T) that pairs nonzero with the unit cocycle, pairs to 2.
PASSED = "u.M = 0, u.b != 0 (mod 0)", "u.b = 2"
SEED_REPORTS = {
    "zeroed": (False, "u.M = 0, u.b != 0 (mod 0)", "u.b = 0"),
    "short": (False, "functional length 6", 5),
}


def seed_report(tampered, failure):
    checks = [("subgroup relators", True, "ok", "ok"),
              ("cocycle condition", True, "ok", "ok")]
    for i, label in enumerate(("K x <eps>", "sl2")):
        checks += [("%s relators" % label, True, "ok", "ok"),
                   ("%s embedding" % label, True, "ok", "ok"),
                   ("%s refutation" % label,)
                   + (SEED_REPORTS[failure] if i == tampered
                      else (True,) + PASSED)]
    return [dict(zip(("name", "pass", "expected", "actual"), c))
            for c in checks]


class TestCheapestFirst:
    """Certificate.verify tests u.b and u.B_sub before the overgroup's step.

    That step builds the overgroup's relator matrix R_L and tests the
    functional pulled back to the overgroup against it, so the spies count
    the relator matrices built.
    """

    @pytest.fixture(scope="class")
    def lift_payload(self):
        lift = lift_to_sl2(schreier_free_basis(11))
        # the cocycle `witness --kind free-lift:11 --n 1` certifies
        b = Cocycle.from_stacked(lift.presentation, [1, 0, 0, 0, 0, 0], 2)
        cert = certify_nonextendable(lift.presentation, lift.assignment, 1, b,
                                     lift.overgroups)
        assert all(c["pass"] for c in cert.verify())
        return cert.payload

    @pytest.fixture
    def relator_calls(self, monkeypatch):
        calls = []
        real = cohomology.relator_condition_matrix

        def spy(presentation, rep):
            calls.append(presentation.name)
            return real(presentation, rep)

        monkeypatch.setattr(cohomology, "relator_condition_matrix", spy)
        return calls

    @pytest.mark.parametrize("tampered", [0, 1])
    @pytest.mark.parametrize("failure", sorted(SEED_REPORTS))
    def test_tampered_report_unchanged(self, lift_payload, relator_calls,
                                       tampered, failure):
        payload = json.loads(json.dumps(lift_payload))
        og = payload["overgroups"][tampered]
        u = og["refutation"]["functional"]
        if failure == "zeroed":
            og["refutation"]["functional"] = [0] * len(u)
        else:
            u.pop()
        assert Certificate(payload).verify() == seed_report(tampered,
                                                            failure)
        other = payload["overgroups"][1 - tampered]["name"]
        assert relator_calls == [other]

    @pytest.mark.parametrize("tampered", [0, 1])
    def test_functional_failing_on_the_coboundaries(self, lift_payload,
                                                    relator_calls, tampered):
        # u.b != 0 still, but u.B_sub != 0: refuted before R_L is built
        payload = json.loads(json.dumps(lift_payload))
        lift = lift_to_sl2(schreier_free_basis(11))
        B_sub = coboundary_matrix(lift.assignment.rep(1))
        target = [x for v in payload["cocycle"]["values"] for x in v]
        j = next(j for j, row in enumerate(B_sub.data)
                 if any(row) and not target[j])
        ref = payload["overgroups"][tampered]["refutation"]
        ref["functional"][j] += 1
        checks = Certificate(payload).verify()
        failed = [c for c in checks if not c["pass"]]
        label = payload["overgroups"][tampered]["name"]
        assert [c["name"] for c in failed] == ["%s refutation" % label]
        assert failed[0]["actual"] == "u.b = %d" % ref["pairing"]
        assert relator_calls == [payload["overgroups"][1 - tampered]["name"]]

    def test_each_overgroup_relator_evaluated_once(self, lift_payload,
                                                   monkeypatch):
        # the "<name> relators" check evaluates each relator on 2x2
        # values; the relator matrix reads rho_n's check off the end of
        # its Fox walk and evaluates none again (K_p has no relators)
        evaluated = Counter()
        real = presentations.evaluate_word

        def spy(word, matrices):
            evaluated[word] += 1
            return real(word, matrices)

        monkeypatch.setattr(presentations, "evaluate_word", spy)
        assert all(c["pass"] for c in Certificate(lift_payload).verify())
        relators = Counter(
            Word.parse(text, og["generators"])
            for og in lift_payload["overgroups"] for text in og["relators"])
        assert evaluated == relators

    @staticmethod
    def forged_ba(n):
        # the genuine b_a certificate at degree n under gl2, its functional
        # swapped for a row u of B_sub's Smith transform past its rank with
        # u.b != 0, so u.B_sub = 0, but u.RZ != 0
        sp, sa = builtin("sl2")
        gl2 = TestCertificates().gl2_overgroup()
        b = make_ba(n, 1)
        payload = certify_nonextendable(sp, sa, n, b, [gl2]).payload
        RZ = restriction_image_matrix(gl2.presentation, gl2.assignment.rep(n),
                                      gl2.words)
        smith = smith_normal_form(coboundary_matrix(sa.rep(n)))
        for u in smith.U.data[smith.rank():]:
            if sum(x * y for x, y in zip(u, b.stacked())) and any(
                    RZ.transpose().mulvec(u)):
                break
        else:
            pytest.fail("no such row at degree %d" % n)
        payload["overgroups"][0]["refutation"]["functional"] = u
        return payload, u, b

    def test_functional_failing_only_on_the_restriction(self, relator_calls,
                                                        monkeypatch):
        # the genuine b_a functional at n = 6 with modulus 3: u.b = -1 and
        # u.B_sub = 0 (mod 3), and u.RZ = 0 exactly, but an overgroup
        # refutation must be exact, so the last test fails before R_L or
        # any kernel basis is built
        sp, sa = builtin("sl2")
        payload = certify_nonextendable(
            sp, sa, 6, make_ba(6, 1),
            [TestCertificates().gl2_overgroup()]).payload
        ref = payload["overgroups"][0]["refutation"]
        assert ref["pairing"] % 3
        ref["modulus"] = 3
        relator_calls.clear()
        monkeypatch.setattr(linalg, "kernel_basis", None)
        monkeypatch.setattr(cohomology, "kernel_basis", None)
        checks = Certificate(payload).verify()
        failed = [c for c in checks if not c["pass"]]
        assert [c["name"] for c in failed] == ["gl2 refutation"]
        assert failed[0]["expected"] == "u.M = 0, u.b != 0 (mod 3)"
        assert failed[0]["actual"] == "u.b = %d" % ref["pairing"]
        assert relator_calls == []

    def test_exact_functional_failing_only_on_the_restriction(
            self, relator_calls, tmp_path, monkeypatch):
        # u.b != 0 and u.B_sub = 0, but u.RZ != 0, so only the last,
        # costliest test refutes it: the route that reduces the pulled-back
        # functional against R_L's echelon and builds no kernel basis.  At
        # odd degree the free-lift overgroups restrict into B_sub
        # rationally, and at n = 6 H^1(gl2) has rank 0, so every exact u
        # with u.B_sub = 0 kills RZ; n = 10 is the first even degree where
        # one does not.
        payload, u, b = self.forged_ba(10)
        relator_calls.clear()
        monkeypatch.setattr(linalg, "kernel_basis", None)
        checks = Certificate(payload).verify()
        failed = [c for c in checks if not c["pass"]]
        assert [c["name"] for c in failed] == ["gl2 refutation"]
        assert failed[0]["expected"] == "u.M = 0, u.b != 0 (mod 0)"
        assert failed[0]["actual"] == "u.b = %d" % sum(
            x * y for x, y in zip(u, b.stacked()))
        assert relator_calls == ["gl2"]
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(payload))
        assert main(["verify-certificate", str(path)]) == 1


# relator or embedding text: tokens with and without ^, x^0, negative
# exponents and x^ with an empty exponent, each after a run of one to
# three spaces.  A token with its gap is one choice from one list, built
# once, in which the 15 plain tokens are repeated to weigh about as much
# as the 372 with ^: hypothesis spends its time per choice, and a
# composite that builds its strategies on every draw spends it validating
# them again.
GAPS = (" ", "  ", "   ")
PLAIN_TOKENS = [gap + x for gap in GAPS for x in ("s", "t", "x1", "x23", "z")]
POWER_TOKENS = [gap + x + "^" + k for gap in GAPS for x in ("s", "x7")
                for k in [""] + [str(k) for k in range(-30, 31)]]
WORD_TEXTS = st.builds(
    lambda tokens, tail: "".join(tokens) + tail,
    st.lists(st.sampled_from(PLAIN_TOKENS * 25 + POWER_TOKENS), max_size=6),
    st.sampled_from(["", " ", "  "]))


class TestCertificates:
    def gl2_overgroup(self):
        gp, ga = builtin("gl2")
        return Overgroup("gl2", gp, ga,
                         [gp.parse_word("s"), gp.parse_word("t")])

    def test_nonextendable_roundtrip(self):
        sp, sa = builtin("sl2")
        b = make_ba(2, 1)
        cert = certify_nonextendable(sp, sa, 2, b, [self.gl2_overgroup()])
        text = cert.to_json()
        back = Certificate.from_json(text)
        checks = back.verify()
        assert checks and all(c["pass"] for c in checks)
        names = {c["name"] for c in checks}
        assert "cocycle condition" in names
        assert "gl2 refutation" in names

    def test_empty_embedding_word_roundtrip(self):
        # an overgroup embedding the empty word is written as "1", which
        # the re-check reads back as the empty word
        sub = Presentation("one", ("x",), ())
        sl2, sl2_assign = builtin("sl2")
        cert = certify_nonextendable(
            sub, MatrixAssignment([Mat2.identity()]), 2,
            Cocycle(sub, [[1, 0, 0]]),
            [Overgroup("sl2", sl2, sl2_assign, [Word()])])
        assert cert.payload["overgroups"][0]["embedding"] == ["1"]
        checks = Certificate.from_json(cert.to_json()).verify()
        assert checks and all(c["pass"] for c in checks)

    def test_torsion_multiple_extends(self):
        # 2 b_a extends rationally only if the membership solve succeeds;
        # at n = 2 the swap extension has rank 0, so even 2 b_a must fail
        sp, sa = builtin("sl2")
        b = make_ba(2, 2)
        cert = certify_nonextendable(sp, sa, 2, b, [self.gl2_overgroup()])
        assert all(c["pass"] for c in cert.verify())

    def test_tampered_certificate_fails(self):
        sp, sa = builtin("sl2")
        b = make_ba(2, 1)
        cert = certify_nonextendable(sp, sa, 2, b, [self.gl2_overgroup()])
        payload = json.loads(cert.to_json())
        payload["cocycle"]["values"][0][0] += 1
        bad = Certificate(payload)
        assert not all(c["pass"] for c in bad.verify())

    def test_coboundary_has_no_certificate(self):
        sp, sa = builtin("sl2")
        rep = sa.rep(2)
        P = [1, 0, 0]
        vals = [(m - IntMatrix.identity(3)).mulvec(P) for m in rep]
        b = Cocycle(sp, vals)
        with pytest.raises(ClaimRefused, match="the cocycle is a coboundary"):
            certify_noncoboundary(sp, sa, 2, b)

    def test_extending_class_has_no_certificate(self, restrictions):
        # b_0 at n = 2 is the restriction of a gl2 class; it pairs to 0
        # with every kernel functional, so the writer's refusal solves for
        # it in the lattice of [RZ | B_sub] and finds it there
        sp, sa = builtin("sl2")
        with pytest.raises(ClaimRefused,
                           match="the class extends to overgroup 'gl2'"):
            certify_nonextendable(sp, sa, 2, make_ba(2, 0),
                                  [self.gl2_overgroup()])
        assert restrictions == ["gl2"]

    def test_noncoboundary_certificate(self):
        gp, ga = builtin("gl2")
        b = make_beps(6, [1, 1])
        cert = certify_noncoboundary(gp, ga, 6, b)
        assert all(c["pass"] for c in cert.verify())

    def test_refutation_is_modular_when_class_is_torsion(self):
        gp, ga = builtin("gl2")
        b = make_beps(2, [1])
        cert = certify_noncoboundary(gp, ga, 2, b)
        ref = cert.payload["refutation"]
        # a torsion class pairs to zero with every rank-defect functional,
        # so the obstruction must be a genuine congruence
        assert ref["modulus"] == 2
        assert ref["pairing"] % 2 == 1

    def test_beps_certificates_refute_mod_2(self):
        # every beps class the CLI can be asked for is outside B's column
        # span over F_2: each certificate stores a 0/1 functional with
        # modulus 2, and is small, as its entries are.  The writer checks
        # the cocycle condition, so make_beps's own check is skipped.
        gp, ga = builtin("gl2")
        rng = random.Random(2027)
        classes = [(n, [1] * beps_count(n)) for n in range(2, 101, 2)]
        classes += [(n, [rng.randint(0, 1) for _ in range(beps_count(n) - 1)]
                     + [1]) for n in sorted(rng.sample(range(2, 101, 2), 8))]
        for n, eps in classes:
            b = Cocycle.from_stacked(gp, _beps_column(n, eps), n + 1)
            cert = certify_noncoboundary(gp, ga, n, b)
            ref = cert.payload["refutation"]
            assert ref["modulus"] == 2
            assert set(ref["functional"]) <= {0, 1}
            assert len(cert.to_json()) < 8000
            assert all(c["pass"] for c in cert.verify())

    def test_pairing_past_the_decimal_digit_limit(self):
        # Python refuses to write an int of more than 4300 digits in
        # decimal; the check is still recorded, with u.b in hex
        checks = []
        Certificate._verify_refutation(
            lambda *args: checks.append(args), "refutation",
            {"functional": [1], "modulus": 0}, [10 ** 5000], [])
        assert checks == [("refutation", True, "u.M = 0, u.b != 0 (mod 0)",
                           "u.b = %#x" % 10 ** 5000)]

    def test_stored_pairing_past_the_decimal_digit_limit(self):
        # json.dumps refuses such an int as well, so the certificate
        # stores it by the report's rule: decimal up to the limit, hex past
        for target, pairing in ((7, 7), (10 ** 5000, "%#x" % 10 ** 5000)):
            ok, ref = cohomology._refutes([1], 0, [target], [])
            assert ok and ref == {"functional": [1], "modulus": 0,
                                  "pairing": pairing}
            text = Certificate({"refutation": ref}).to_json()
            assert json.loads(text)["refutation"]["pairing"] == pairing

    def test_degree_bound(self):
        assert check_degree(0) == 0
        assert check_degree(CERT_MAX_DEGREE) == CERT_MAX_DEGREE
        for bad in (CERT_MAX_DEGREE + 1, -1, True, 4.0, "4"):
            with pytest.raises(ValueError):
                check_degree(bad)
        # checked before any matrix of that degree is built, and bad
        # input, not a refused claim
        gp, ga = builtin("gl2")
        b = make_beps(6, [1, 1])
        with pytest.raises(ValueError, match="degree") as raised:
            certify_noncoboundary(gp, ga, 10 ** 9, b)
        assert not isinstance(raised.value, ClaimRefused)
        sp, sa = builtin("sl2")
        with pytest.raises(ValueError, match="degree") as raised:
            certify_nonextendable(sp, sa, 10 ** 9, make_ba(2, 1),
                                  [self.gl2_overgroup()])
        assert not isinstance(raised.value, ClaimRefused)

    def test_cost_budget(self, capsys, tmp_path, monkeypatch):
        # the budget is that of ba:120,1, the costliest certificate the CLI
        # writes, counted by the one _payload_letters off the written payload
        sp, sa = builtin("sl2")
        b = make_ba(CERT_MAX_DEGREE, 1)
        cert = certify_nonextendable(sp, sa, CERT_MAX_DEGREE, b,
                                     [self.gl2_overgroup()])
        letters = _payload_letters(cert.payload)
        assert letters == 30
        assert letters * (CERT_MAX_DEGREE + 1) ** 3 == CERT_MAX_COST
        assert all(c["pass"] for c in cert.verify())
        check_cost(CERT_MAX_DEGREE, letters)
        with pytest.raises(ValueError, match="budget"):
            check_cost(CERT_MAX_DEGREE, letters + 1)
        # one letter more, the gl2 relator s^4 written as t^3 s^2, is
        # refused by the writer before anything is built, as bad input
        gp, ga = builtin("gl2")
        longer = Presentation("gl2", gp.generators,
                              (gp.parse_word("t^3 s^2"),) + gp.relators[1:])
        costly = Overgroup("gl2", longer, ga,
                           [gp.parse_word("s"), gp.parse_word("t")])
        with pytest.raises(ValueError, match="over the budget") as raised:
            certify_nonextendable(sp, sa, CERT_MAX_DEGREE, b, [costly])
        assert not isinstance(raised.value, ClaimRefused)
        monkeypatch.setattr("modh1.cli._gl2_overgroup", lambda: costly)
        assert main(["witness", "--kind", "ba:%d,1" % CERT_MAX_DEGREE,
                     "--cert", str(tmp_path / "x.json")]) == 2
        assert "over the budget" in capsys.readouterr().err
        # written with the budget raised by hand, the re-check refuses it
        monkeypatch.setattr(cohomology, "CERT_MAX_COST", 2 * CERT_MAX_COST)
        over = certify_nonextendable(sp, sa, CERT_MAX_DEGREE, b, [costly])
        assert _payload_letters(over.payload) == letters + 1
        monkeypatch.undo()
        checks = over.verify()
        assert [(c["name"], c["pass"]) for c in checks] == [
            ("payload fields", False)]
        assert "over the budget" in checks[0]["actual"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(WORD_TEXTS, max_size=4), min_size=3,
                    max_size=7))
    def test_payload_letters_match_the_one_line_count(self, groups):
        # a token without ^ is one letter and is not parsed; the count is
        # the one-line sum that parses every token
        sub, *rest = groups
        payload = {"subgroup": {"relators": sub},
                   "overgroups": [{"relators": r, "embedding": e}
                                  for r, e in zip(rest[::2], rest[1::2])]}
        texts = sub + [t for og in payload["overgroups"]
                       for t in og["relators"] + og["embedding"]]
        assert _payload_letters(payload) == sum(
            abs(int(token.partition("^")[2] or 1))
            for text in texts for token in str.split(text))

    @pytest.mark.parametrize("entry", [3, None, ["s"], b"s"])
    def test_payload_letters_refuse_a_non_string(self, entry):
        with pytest.raises(TypeError):
            _payload_letters({"subgroup": {"relators": ["s t^-2", entry]}})


PRIMES_11_MOD_12 = (11, 23, 47, 59, 71, 83, 107, 131)


@pytest.fixture
def restrictions(monkeypatch):
    # the overgroups whose Z^1 basis is restricted, which only the
    # writer's refusal, deciding b's membership in [RZ | B_sub], does
    calls = []
    real = cohomology.restriction_image_matrix

    def spy(presentation, rep, words):
        calls.append(presentation.name)
        return real(presentation, rep, words)

    monkeypatch.setattr(cohomology, "restriction_image_matrix", spy)
    return calls


class TestKernelFunctional:
    """certify_nonextendable refutes with one vector of ker(B_sub^T)."""

    @staticmethod
    def assert_exact(cert):
        refutations = [og["refutation"] for og in cert.payload["overgroups"]]
        assert [r["modulus"] for r in refutations] == [0] * len(refutations)
        assert all(c["pass"] for c in cert.verify())

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_ba_classes(self, restrictions, n):
        sp, sa = builtin("sl2")
        cert = certify_nonextendable(sp, sa, n, make_ba(n, 1),
                                     [TestCertificates().gl2_overgroup()])
        self.assert_exact(cert)
        [ref] = [og["refutation"] for og in cert.payload["overgroups"]]
        assert max(map(abs, ref["functional"])) == 1
        assert restrictions == []

    @pytest.mark.parametrize("n", [6, 12])
    def test_ba_functional_refutes_every_multiple(self, n):
        # u.b_a = a u.b_1 != 0, so b_1's stored functional re-verifies for
        # each b_a; a modulus m would fail for every a that m divides
        sp, sa = builtin("sl2")
        payload = certify_nonextendable(
            sp, sa, n, make_ba(n, 1),
            [TestCertificates().gl2_overgroup()]).payload
        for a in range(2, 11):
            payload["cocycle"]["values"] = [list(v)
                                            for v in make_ba(n, a).values]
            assert all(c["pass"] for c in Certificate(payload).verify())

    @pytest.mark.parametrize("p", PRIMES_11_MOD_12)
    def test_free_lift_unit_classes(self, restrictions, p):
        lift = lift_to_sl2(schreier_free_basis(p))
        for n in (1, 3):
            unit = [0] * (len(lift.presentation.generators) * (n + 1))
            unit[0] = 1
            b = Cocycle.from_stacked(lift.presentation, unit, n + 1)
            cert = certify_nonextendable(lift.presentation, lift.assignment,
                                         n, b, lift.overgroups)
            self.assert_exact(cert)
            # one functional serves both overgroups
            first, second = (og["refutation"]
                             for og in cert.payload["overgroups"])
            assert first == second
        assert restrictions == []

    def test_torsion_class_is_not_certifiable(self, restrictions):
        # a class of order 12 in H^1(sl2) at n = 4, B*V[:, i]/d_i for the
        # Smith form of B: every vector of ker(B_sub^T) pairs to 0 with it,
        # and it is outside the lattice of [RZ | B_sub] but torsion modulo
        # it, so no exact functional refutes it: bad input, not a refused
        # claim
        sp, sa = builtin("sl2")
        B = coboundary_matrix(sa.rep(4))
        smith = smith_normal_form(B)
        [(i, d)] = [(i, d) for i, d in enumerate(smith.diagonal()) if d > 1]
        assert d == 12
        b = Cocycle.from_stacked(
            sp, [x // d for x in B.mulvec(smith.V.column(i))], 5)
        assert class_order(sp, sa.rep(4), b) == 12
        with pytest.raises(ValueError, match="no exact or mod 2") as raised:
            certify_nonextendable(sp, sa, 4, b,
                                  [TestCertificates().gl2_overgroup()])
        assert not isinstance(raised.value, ClaimRefused)
        assert restrictions == ["gl2"]


class TestCocycleContainer:
    def test_stacked_roundtrip(self):
        pres, _ = builtin("sl2")
        b = Cocycle(pres, [[1, 2, 3], [4, 5, 6]])
        assert b.stacked() == [1, 2, 3, 4, 5, 6]
        c = Cocycle.from_stacked(pres, b.stacked(), 3)
        assert c == b

    def test_dimension_mismatch_rejected(self):
        pres, _ = builtin("sl2")
        with pytest.raises(ValueError):
            Cocycle(pres, [[1, 2], [1, 2, 3]])
        with pytest.raises(ValueError):
            Cocycle(pres, [[1, 2]])

    def test_cocycle_basis_dimensions(self):
        # normalized count: dim Z^1 = dim ker(1+S) + dim ker(1+T+T^2)
        pres, assignment = builtin("psl2")
        for n in (2, 4, 6):
            K = cocycle_basis(pres, assignment.rep(n))
            S = rho_matrix(GEN_S, n)
            T = rho_matrix(GEN_T, n)
            d = n + 1
            eye = IntMatrix.identity(d)
            norm_t = eye + T + T * T
            expected = (d - rank(S + eye)) + (d - rank(norm_t))
            assert K.cols == expected
