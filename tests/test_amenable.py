"""Tests for element classification and maximal amenable subgroup types.

The dihedral decision is exercised against an independent brute-force
witness search on a fixed corpus of hyperbolic matrices, and all returned
witnesses are re-verified from the defining matrix equation rather than
trusted from the solver.
"""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modh1 import amenable
from modh1.amenable import (
    AmenableTypeReport,
    ElementClass,
    QForm,
    _reduce,
    classify,
    dinf_decision,
    max_amenable_type,
    parabolic_generator,
    qform,
)
from modh1.polyrep import GEN_S, GEN_T, GEN_W, Mat2

IDENT = Mat2.identity()
T_UP = Mat2(1, 1, 0, 1)
T_DOWN = T_UP.inv()
# the words h of the pinned conjugates h g h^-1: S, T^+-1, T^+-2,
# S T^+-1, T^+-1 S and T^+-1 S T^+-1
SHORT_WORDS = [GEN_S, T_UP, T_DOWN, T_UP * T_UP, T_DOWN * T_DOWN,
               GEN_S * T_UP, GEN_S * T_DOWN, T_UP * GEN_S, T_DOWN * GEN_S,
               T_UP * GEN_S * T_UP, T_UP * GEN_S * T_DOWN,
               T_DOWN * GEN_S * T_UP, T_DOWN * GEN_S * T_DOWN]


def brute_witness(g, bound=50):
    """Exhaustive search for a trace-zero conjugator with small entries."""
    a, b, c, d = g.entries()
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            num = (d - a) * x - c * y
            if num % b != 0:
                continue
            z = num // b
            if x * x + y * z == -1:
                return Mat2(x, y, z, -x)
    return None


def assert_valid_witness(witness, g):
    assert witness.trace() == 0
    assert witness.det() == 1
    assert witness * g == g.inv() * witness


def assert_locally_minimal(witness, g):
    """No step B -> +-g^{+-1} B along the witness orbit shrinks B."""
    def key(w):
        return (max(abs(t) for t in w.entries()), w.entries())

    for step in (g, g.inv()):
        for moved in (step * witness, -(step * witness)):
            assert key(moved) >= key(witness)


def random_unimodular(rng, steps=6):
    """A small random product of elementary matrices, determinant 1."""
    out = IDENT
    for _ in range(steps):
        k = rng.randint(-2, 2)
        if rng.randrange(2):
            out = out * Mat2(1, k, 0, 1)
        else:
            out = out * Mat2(1, 0, k, 1)
        if rng.randrange(3) == 0:
            out = out * GEN_S
    return out


def hyperbolic_corpus(count, seed=20):
    """Fixed corpus of hyperbolic matrices with |trace| <= 20."""
    rng = random.Random(seed)
    mats = []
    while len(mats) < count:
        a = rng.randint(-10, 10)
        d = rng.randint(-10, 10)
        if not 2 < abs(a + d) <= 20:
            continue
        prod = a * d - 1
        if prod == 0:
            continue
        divisors = [k for k in range(1, abs(prod) + 1) if prod % k == 0]
        b = rng.choice(divisors) * rng.choice((1, -1))
        mats.append(Mat2(a, b, prod // b, d))
    return mats


class TestClassify:
    def test_parabolic_example(self):
        assert classify(Mat2(1, 5, 0, 1)) == ElementClass("parabolic")
        assert classify(Mat2(-1, 1, 0, -1)) == ElementClass("parabolic")
        assert classify(Mat2(1, 0, 4, 1)) == ElementClass("parabolic")

    def test_hyperbolic_example(self):
        assert classify(Mat2(3, 1, 2, 1)) == ElementClass("hyperbolic")
        assert classify(-Mat2(3, 1, 2, 1)) == ElementClass("hyperbolic")

    def test_elliptic_orders(self):
        assert classify(GEN_S) == ElementClass("elliptic", order=4)
        assert classify(GEN_T) == ElementClass("elliptic", order=6)
        assert classify(GEN_T * GEN_T) == ElementClass("elliptic", order=3)

    def test_elliptic_order_is_the_true_order(self):
        for g in (GEN_S, GEN_T, GEN_T * GEN_T, GEN_T.inv(), GEN_S.inv()):
            order = classify(g).order
            assert g ** order == IDENT
            for k in range(1, order):
                assert g ** k != IDENT

    def test_central(self):
        assert classify(IDENT) == ElementClass("central")
        assert classify(-IDENT) == ElementClass("central")

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ValueError):
            classify(GEN_W)
        with pytest.raises(ValueError):
            classify(Mat2(1, 0, 0, 2))

    def test_element_class_validation(self):
        with pytest.raises(ValueError):
            ElementClass("weird")
        with pytest.raises(ValueError):
            ElementClass("parabolic", order=2)
        with pytest.raises(ValueError):
            ElementClass("elliptic")
        with pytest.raises(ValueError):
            ElementClass("elliptic", order=5)


class TestQForm:
    def test_known_forms(self):
        assert qform(Mat2(3, 1, 2, 1)) == QForm(1, -2, -2)
        assert qform(Mat2(3, 1, 2, 1)).discriminant == 12
        assert qform(Mat2(2, 1, 1, 1)) == QForm(1, -1, -1)
        assert qform(Mat2(2, 1, 1, 1)).discriminant == 5

    def test_symmetric_value_at_0_1(self):
        for g in (Mat2(2, 1, 1, 1), Mat2(5, 3, 3, 2), Mat2(10, 7, 7, 5)):
            assert g.b == g.c
            assert qform(g).c == -g.b

    def test_discriminant_is_trace_square_minus_four(self):
        for g in hyperbolic_corpus(40):
            disc = qform(g).discriminant
            assert disc == g.trace() ** 2 - 4
            assert disc > 0
            r = 0
            while r * r < disc:
                r += 1
            assert r * r != disc

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            qform(Mat2(1, 1, 0, 1))
        with pytest.raises(ValueError):
            qform(GEN_S)
        with pytest.raises(ValueError):
            qform(IDENT)


class TestDinfDecision:
    def test_cyclic_example(self):
        assert dinf_decision(Mat2(3, 1, 2, 1)) is None

    def test_symmetric_example(self):
        witness = dinf_decision(Mat2(2, 1, 1, 1))
        assert witness == GEN_S
        assert_valid_witness(witness, Mat2(2, 1, 1, 1))

    def test_symmetric_always_dihedral(self):
        found = 0
        for b in range(1, 7):
            target = 1 + b * b
            for a in range(1, target + 1):
                if target % a:
                    continue
                g = Mat2(a, b, b, target // a)
                if abs(g.trace()) <= 2:
                    continue
                witness = dinf_decision(g)
                assert witness is not None
                assert_valid_witness(witness, g)
                found += 1
        assert found >= 10

    def test_rotation_conjugates_symmetric_to_inverse(self):
        g = Mat2(5, 3, 3, 2)
        assert GEN_S * g * GEN_S.inv() == g.inv()

    def test_conjugation_covariance(self):
        rng = random.Random(4)
        cases = (Mat2(2, 1, 1, 1), Mat2(3, 1, 2, 1), Mat2(5, 2, 2, 1))
        for g in cases:
            base = dinf_decision(g)
            for _ in range(4):
                h = random_unimodular(rng)
                conj = h * g * h.inv()
                moved = dinf_decision(conj)
                assert (moved is None) == (base is None)
                if moved is not None:
                    assert_valid_witness(moved, conj)

    def test_corpus_against_brute_force(self):
        for g in hyperbolic_corpus(200):
            witness = dinf_decision(g)
            brute = brute_witness(g)
            if witness is not None:
                assert_valid_witness(witness, g)
                if max(abs(t) for t in witness.entries()) <= 50:
                    assert brute is not None
            if brute is not None:
                assert_valid_witness(brute, g)
                assert witness is not None

    def test_corpus_witnesses_locally_minimal(self):
        for g in hyperbolic_corpus(200):
            witness = dinf_decision(g)
            if witness is not None:
                assert_locally_minimal(witness, g)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValueError):
            dinf_decision(Mat2(1, 1, 0, 1))
        with pytest.raises(ValueError):
            dinf_decision(GEN_T)

    def test_corpus_witnesses_are_pinned(self):
        # which witness comes back, not only that it is one: every base of
        # the corpus and its conjugates by the short words, one line each
        lines = []
        for g in hyperbolic_corpus(200):
            for m in [g] + [h * g * h.inv() for h in SHORT_WORDS]:
                witness = dinf_decision(m)
                lines.append("-" if witness is None else witness.format())
        assert len(lines) == 2800
        assert len(lines) - lines.count("-") == 434
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "274cab51382160cbf84a35e41c26fd56bc66f3b5107db2c92a57f6b57c8832b6")

    @pytest.mark.parametrize("g, pair, message", [
        # (u, y) = (2 b^2, 0) passes both congruences and gives
        # B = (b 0; d - a -b), of determinant -b^2
        (Mat2(3, 2, 4, 3), (8, 0), "not a witness"),
        (Mat2(3, 2, 7, 5), (8, 0), "not a witness"),
        (Mat2(3, 2, 4, 3), (1, 0), "x integral"),
        (Mat2(3, 2, 7, 5), (2, 1), "z integral"),
    ])
    def test_candidate_checks_are_live(self, monkeypatch, g, pair, message):
        assert _reduce(g.entries())[0] == IDENT.entries()
        monkeypatch.setattr(amenable, "solve_norm_equation",
                            lambda *args, **kwargs: ([pair], None))
        with pytest.raises(RuntimeError, match=message):
            dinf_decision(g)

    def test_reduction_and_final_checks_are_live(self, monkeypatch):
        g = Mat2(3, 1, 2, 1)
        with monkeypatch.context() as patch:
            patch.setattr(amenable, "_reduce",
                          lambda g: (IDENT.entries(), (2, 1, 1, 1)))
            with pytest.raises(RuntimeError, match="not a conjugation"):
                dinf_decision(g)
        # S does not conjugate (3 1; 2 1) to its inverse
        monkeypatch.setattr(amenable, "_pell_witnesses",
                            lambda g: [GEN_S.entries()])
        with pytest.raises(RuntimeError, match="does not invert the input"):
            dinf_decision(g)

    def test_covariance_cases_are_fast(self):
        # the conjugates of test_conjugation_covariance, plus one that
        # took seconds when the equation was solved on the input itself
        rng = random.Random(4)
        cases = [Mat2(125, 151, -101, -122)]
        for g in (Mat2(2, 1, 1, 1), Mat2(3, 1, 2, 1), Mat2(5, 2, 2, 1)):
            cases.append(g)
            for _ in range(4):
                h = random_unimodular(rng)
                cases.append(h * g * h.inv())
        for g in cases:
            start = time.perf_counter()
            dinf_decision(g)
            assert time.perf_counter() - start < 0.1, g


# a few corpus bases of each type, and conjugating words far longer than
# the filter scan on the unreduced input could finish in test time
COVARIANCE_BASES = [Mat2(2, 1, 1, 1), Mat2(3, 1, 2, 1), Mat2(5, 2, 2, 1),
                    Mat2(8, -1, 41, -5), Mat2(-6, -1, -11, -2),
                    Mat2(3, 1, -25, -8)]


def long_conjugator():
    """Words T^k1 S T^k2 S ... of 24 to 30 letters, 3 <= |k| <= 9.

    T^k S = (k -1; 1 0), and with |k| >= 3 each factor at least doubles
    the first column, so the entries pass 2^12.
    """
    ks = st.lists(st.integers(3, 9).flatmap(lambda k: st.sampled_from((k, -k))),
                  min_size=12, max_size=15)

    def word(ks):
        out = IDENT
        for k in ks:
            out = out * Mat2(1, k, 0, 1) * GEN_S
        return out

    return ks.map(word)


class TestReduction:
    def test_identity_on_reduced_input(self):
        # (2 1; 1 1) sits on the boundary d - a = -|c|
        for g in (Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2), Mat2(2, 1, 3, 2),
                  Mat2(4, 3, 5, 4), Mat2(3, 2, 7, 5), Mat2(-3, 2, 4, -3),
                  Mat2(-2, -1, -1, -1)):
            assert abs(g.d - g.a) <= abs(g.b) <= abs(g.c)
            assert _reduce(g.entries()) == (IDENT.entries(), g.entries())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(base=st.sampled_from(COVARIANCE_BASES), h=long_conjugator())
    def test_reduced_form(self, base, h):
        g = h * base * h.inv()
        conj, reduced = (Mat2(*m) for m in _reduce(g.entries()))
        assert conj.det() == 1
        assert reduced == conj * g * conj.inv()
        assert abs(reduced.d - reduced.a) <= abs(reduced.b) <= abs(reduced.c)
        assert reduced.b * reduced.c > 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(base=st.sampled_from(COVARIANCE_BASES), h=long_conjugator())
    def test_long_conjugates_keep_the_decision(self, base, h):
        g = h * base * h.inv()
        assert max(abs(t) for t in g.entries()) > 10 ** 6
        expected = dinf_decision(base)
        witness = dinf_decision(g)
        assert (witness is None) == (expected is None)
        if witness is not None:
            assert_valid_witness(witness, g)
            assert_locally_minimal(witness, g)


class TestParabolicGenerator:
    def test_upper_example(self):
        assert parabolic_generator(Mat2(1, 3, 0, 1)) == Mat2(1, 1, 0, 1)

    def test_lower_example(self):
        assert parabolic_generator(Mat2(1, 0, 4, 1)) == Mat2(1, 0, 1, 1)

    def test_negative_direction(self):
        assert parabolic_generator(Mat2(1, -3, 0, 1)) == Mat2(1, -1, 0, 1)
        assert parabolic_generator(-Mat2(1, 1, 0, 1)) == Mat2(1, 1, 0, 1)

    def test_idempotent(self):
        for g in (Mat2(1, 3, 0, 1), Mat2(1, 0, 4, 1), Mat2(-1, -5, 0, -1)):
            gen = parabolic_generator(g)
            assert parabolic_generator(gen) == gen

    def test_input_is_power_of_generator(self):
        rng = random.Random(11)
        for _ in range(25):
            h = random_unimodular(rng)
            k = rng.choice((-5, -3, -2, -1, 1, 2, 4, 7))
            sign = rng.choice((1, -1))
            g = h * Mat2(sign, sign * k, 0, sign) * h.inv()
            gen = parabolic_generator(g)
            expected = h * Mat2(1, 1 if k > 0 else -1, 0, 1) * h.inv()
            assert gen == expected
            assert gen ** abs(k) in (g, -g)

    def test_conjugation_covariance(self):
        rng = random.Random(5)
        for g in (Mat2(1, 2, 0, 1), Mat2(1, 0, -3, 1), Mat2(-1, 4, 0, -1)):
            gen = parabolic_generator(g)
            for _ in range(4):
                h = random_unimodular(rng)
                assert parabolic_generator(h * g * h.inv()) == h * gen * h.inv()

    def test_rejects_non_parabolic(self):
        with pytest.raises(ValueError):
            parabolic_generator(Mat2(2, 1, 1, 1))
        with pytest.raises(ValueError):
            parabolic_generator(GEN_S)
        with pytest.raises(ValueError):
            parabolic_generator(IDENT)


class TestMaxAmenableType:
    def test_order_six(self):
        report = max_amenable_type(GEN_T)
        assert report.psl_type == "C3"
        assert report.sl2_type == "C6"
        assert report.witness is None
        assert report.generator is None

    def test_order_four(self):
        report = max_amenable_type(GEN_S)
        assert report.psl_type == "C2"
        assert report.sl2_type == "C4"

    def test_order_three(self):
        report = max_amenable_type(GEN_T * GEN_T)
        assert report.sl2_type == "C6"

    def test_hyperbolic_cyclic(self):
        report = max_amenable_type(Mat2(3, 1, 2, 1))
        assert report.psl_type == "Z"
        assert report.sl2_type == "Z x C2"
        assert report.witness is None

    def test_hyperbolic_dihedral(self):
        g = Mat2(2, 1, 1, 1)
        report = max_amenable_type(g)
        assert report.psl_type == "Dinf"
        assert report.sl2_type == "Z x| C4"
        assert_valid_witness(report.witness, g)

    def test_parabolic(self):
        report = max_amenable_type(Mat2(1, 3, 0, 1))
        assert report.psl_type == "Z"
        assert report.sl2_type == "Z x C2"
        assert report.generator == Mat2(1, 1, 0, 1)
        assert report.witness is None

    def test_rejects_central(self):
        with pytest.raises(ValueError):
            max_amenable_type(IDENT)
        with pytest.raises(ValueError):
            max_amenable_type(-IDENT)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            AmenableTypeReport("C5")
        with pytest.raises(ValueError):
            AmenableTypeReport("Z", witness=GEN_S)
        with pytest.raises(ValueError):
            AmenableTypeReport("C3", generator=Mat2(1, 1, 0, 1))
