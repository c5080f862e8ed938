"""Tests for congruence subgroup machinery.

The free basis tests lean on two independent facts: the rank of a
torsion-free index p+1 subgroup is pinned by the Euler characteristic, and
torsion elements of the projective modular group are exactly the ones whose
matrix lifts have trace in {-1, 0, 1}.  Sampled membership tests compare
the fractional cocycle characterization of Gamma_1(N) against the direct
congruence conditions word by word.
"""

import hashlib
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modh1.cohomology
from modh1.cohomology import CERTIFICATE_FORMAT, Certificate, ClaimRefused, \
    Cocycle, h1, certify_membership_sample, certify_nonextendable
from modh1.congruence import (
    CosetTable,
    FreeBasis,
    _syllable_inv,
    _syllable_mul,
    _syllables_to_word,
    _word_to_syllables,
    bN,
    coset_table,
    find_torsion,
    gamma1_member,
    legendre,
    lift_to_sl2,
    membership_mismatches,
    schreier_free_basis,
    torsion_criterion,
)
from modh1.polyrep import GEN_S, GEN_T, Mat2
from modh1.presentations import Word, evaluate_word


def primes(lo, hi):
    out = []
    for p in range(max(lo, 2), hi + 1):
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            out.append(p)
    return out


class TestLegendre:
    def test_known_values(self):
        assert legendre(-1, 11) == -1
        assert legendre(-3, 13) == 1
        assert legendre(0, 7) == 0
        assert legendre(2, 7) == 1
        assert legendre(3, 7) == -1

    def test_multiplicativity(self):
        for p in (5, 13, 29):
            for a in range(1, p):
                for b in range(1, p):
                    assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    def test_counts_squares(self):
        for p in primes(3, 60):
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                assert (legendre(a, p) == 1) == (a in squares)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre(1, 2)
        with pytest.raises(ValueError):
            legendre(1, 15)


class TestMembership:
    def test_gamma1(self):
        assert gamma1_member(Mat2(3, 1, 2, 1), 2)
        assert not gamma1_member(Mat2(1, 0, 1, 1), 2)
        assert gamma1_member(Mat2(1, 5, 0, 1), 3)
        # lower-left divisible but diagonal wrong: gamma0 without gamma1
        g = Mat2(2, 1, 3, 2)
        assert g.c % 3 == 0
        assert not gamma1_member(g, 3)

    def test_gamma1_level_one_is_everything(self):
        for g in (Mat2(1, 0, 0, 1), Mat2(2, 1, 1, 1), Mat2(0, -1, 1, 0),
                  Mat2(-1, 0, 0, -1), Mat2(3, 5, 4, 7)):
            assert gamma1_member(g, 1)
        assert membership_mismatches(1, count=20) == 0

    def test_determinant_guard(self):
        with pytest.raises(ValueError):
            gamma1_member(Mat2(2, 0, 0, 1), 3)
        with pytest.raises(ValueError):
            bN(Mat2(1, 1, 1, 1), 2)

    def test_bN_examples(self):
        from fractions import Fraction

        value, integral = bN(Mat2(1, 0, 1, 1), 2)
        assert value == (Fraction(0), Fraction(1, 2))
        assert not integral
        value, integral = bN(Mat2(3, 1, 2, 1), 2)
        assert value == (Fraction(1), Fraction(1))
        assert integral

    def test_bN_matches_gamma1_on_samples(self):
        # full protocol: 10^4 words of length <= 20 per modulus
        for N in (2, 3, 5, 11):
            assert membership_mismatches(N, seed=0, count=10000,
                                         max_length=20) == 0

    def test_sample_certificate_roundtrip(self):
        cert = certify_membership_sample(3, count=500)
        assert cert.payload["format"] == CERTIFICATE_FORMAT
        checks = Certificate.from_json(cert.to_json()).verify()
        assert checks and all(c["pass"] for c in checks)

    def test_sample_certificate_tamper(self):
        cert = certify_membership_sample(3, count=500)
        bad = dict(cert.payload)
        bad["mismatches"] = 1
        checks = Certificate(bad).verify()
        assert not all(c["pass"] for c in checks)

    @pytest.mark.parametrize("field, value", [
        ("count", 10 ** 12), ("count", -1), ("max_length", 10 ** 9),
        ("modulus", 0), ("modulus", 10 ** 30)])
    def test_sample_certificate_out_of_bounds(self, field, value):
        cert = certify_membership_sample(3, count=50)
        bad = dict(cert.payload)
        bad[field] = value
        start = time.perf_counter()
        checks = Certificate(bad).verify()
        assert time.perf_counter() - start < 1
        assert [(c["name"], c["pass"]) for c in checks] == [
            ("payload fields", False)]

    def test_sample_bounds_apply_when_certifying(self):
        # an out-of-range sample is bad input, not a refused claim
        with pytest.raises(ValueError) as raised:
            certify_membership_sample(3, count=10 ** 12)
        assert not isinstance(raised.value, ClaimRefused)

    def test_mismatching_sample_is_refused(self, monkeypatch):
        monkeypatch.setattr(modh1.cohomology, "_sample_record",
                            lambda *args: (2, "0" * 64))
        with pytest.raises(ClaimRefused,
                           match="characterization failed on 2 words"):
            certify_membership_sample(3, count=50)


class TestCosetTable:
    def test_point_count(self):
        assert len(coset_table(2).points) == 3
        assert len(coset_table(11).points) == 12

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            coset_table(12)
        with pytest.raises(ValueError):
            coset_table(1)

    def test_transitive_small_primes(self):
        # BFS reaching every point is exactly transitivity
        for p in primes(2, 100):
            table = coset_table(p)
            assert len(table.points) == p + 1
            assert sorted(table.perm_s) == list(table.points)
            assert sorted(table.perm_t) == list(table.points)

    def test_transversal_words_reach_their_points(self):
        for p in (5, 11, 13):
            table = coset_table(p)
            for x in table.points:
                g = evaluate_word(table.transversal[x], (GEN_S, GEN_T))
                assert table.apply(g, table.base) == x

    def test_base_stabilizer_is_congruence_condition(self):
        table = coset_table(7)
        for g in (Mat2(1, 0, 7, 1), Mat2(2, 1, 7, 4), Mat2(1, 3, 0, 1)):
            assert table.apply(g, table.base) == table.base
        assert table.apply(Mat2(1, 0, 1, 1), table.base) != table.base

    def test_permutations_match_apply(self):
        for p in primes(2, 100):
            table = coset_table(p)
            for x in table.points:
                assert table.perm_s[x] == table.apply(GEN_S, x)
                assert table.perm_t[x] == table.apply(GEN_T, x)

    def test_geodesic_schreier_transversal(self):
        # every suffix of a transversal word is the transversal word of the
        # point it reaches, and each word is as long as its point's distance
        # from the base, found by a search that uses apply alone
        moves = {(0, 1): GEN_S, (1, 1): GEN_T, (1, -1): GEN_T.inv()}
        for p in primes(2, 100):
            table = coset_table(p)
            dist, frontier = {table.base: 0}, [table.base]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in moves.values():
                        y = table.apply(g, x)
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            assert sorted(dist) == list(table.points)
            for x in table.points:
                letters = table.transversal[x].letters
                assert len(letters) == dist[x]
                y = table.base
                for i in reversed(range(len(letters))):
                    y = table.apply(moves[letters[i]], y)
                    assert table.transversal[y].letters == letters[i:]
                assert y == x


class TestTorsionCriterion:
    def test_matches_residue_class(self):
        for p in primes(5, 200):
            assert torsion_criterion(p) == (p % 12 == 11)

    def test_witness_when_criterion_fails(self):
        for p in primes(5, 200):
            g = find_torsion(p)
            if torsion_criterion(p):
                assert g is None
            else:
                assert g is not None
                assert g.det() == 1
                assert g.c % p == 0
                tr = g.a + g.d
                assert abs(tr) <= 1  # torsion trace
                eye = Mat2.identity()
                if tr == 0:
                    assert (g * g).proj_eq(eye)
                    assert not g.proj_eq(eye)
                else:
                    assert (g * g * g).proj_eq(eye)
                    assert not g.proj_eq(eye)

    def test_guards(self):
        with pytest.raises(ValueError):
            torsion_criterion(3)
        with pytest.raises(ValueError):
            torsion_criterion(10)
        with pytest.raises(ValueError):
            find_torsion(9)


# The free product normal form computed a token at a time, as it was before
# the reducer learned to scan only the junction of two normal forms.
T_EXP = {"t": 1, "T": 2}
TOKEN = {(0, 1): "s", (0, -1): "s", (1, 1): "t", (1, -1): "T"}


def reference_normal_form(tokens):
    out = []
    for tok in tokens:
        if out and out[-1] == "s" and tok == "s":
            out.pop()
        elif out and out[-1] != "s" and tok != "s":
            e = (T_EXP[out.pop()] + T_EXP[tok]) % 3
            if e:
                out.append("tT"[e - 1])
        else:
            out.append(tok)
    return "".join(out)


def reference_inverse(a):
    return "".join({"s": "s", "t": "T", "T": "t"}[tok] for tok in reversed(a))


def reference_nielsen(elems):
    # greedy Nielsen reduction: replace a generator by its product with
    # another generator or that generator's inverse, or by a conjugate,
    # while any of these shortens it; every candidate is built in full
    def mul(a, b):
        return reference_normal_form(a + b)

    inv = reference_inverse
    elems = [e for e in elems if e]
    changed = True
    while changed:
        changed = False
        canon = {}
        for e in elems:
            canon.setdefault(min(e, inv(e)), e)
        elems = list(canon.values())
        for i in range(len(elems)):
            if changed:
                break
            a = elems[i]
            for j in range(len(elems)):
                if i == j:
                    continue
                b = elems[j]
                candidates = [mul(a, b), mul(a, inv(b)), mul(b, a),
                              mul(inv(b), a), mul(mul(b, a), inv(b)),
                              mul(mul(inv(b), a), b)]
                best = min(candidates, key=len)
                if len(best) < len(a):
                    if best:
                        elems[i] = best
                    else:
                        elems.pop(i)
                    changed = True
                    break
    return elems


letter_lists = st.lists(st.sampled_from(sorted(TOKEN)), max_size=24)


def proj_value(word):
    return evaluate_word(word, (GEN_S, GEN_T))


class TestNormalForm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(u=letter_lists, v=letter_lists)
    def test_reducer_matches_reference(self, u, v):
        a, b = _word_to_syllables(Word(u)), _word_to_syllables(Word(v))
        assert a == reference_normal_form(TOKEN[x] for x in u)
        ab = _syllable_mul(a, b)
        assert ab == reference_normal_form(TOKEN[x] for x in u + v)
        assert all((x == "s") != (y == "s") for x, y in zip(ab, ab[1:]))
        assert _syllable_inv(a) == _word_to_syllables(Word(u).inverse())
        assert _syllable_mul(a, _syllable_inv(a)) == ""
        # the normal form names the same element, up to the sign of -1
        assert proj_value(_syllables_to_word(ab)).proj_eq(
            proj_value(Word(u + v)))

    def test_bases_are_nielsen_reduced(self):
        # the Schreier generators from the geodesic transversal are already
        # Nielsen-reduced: the greedy reduction leaves each basis unchanged
        for p in primes(11, 200):
            if p % 12 == 11:
                basis = [_word_to_syllables(w)
                         for w in schreier_free_basis(p).words]
                assert reference_nielsen(basis) == basis

    def test_bases_frozen(self):
        # sha256 of the basis words for every p = 11 mod 12 up to 400, as
        # computed by the token-at-a-time reducer
        data = repr([(p, [w.letters for w in schreier_free_basis(p).words])
                     for p in primes(11, 400) if p % 12 == 11])
        assert hashlib.sha256(data.encode()).hexdigest() == (
            "716daff6dbcae71c715a76f49832ba5f3f55a50841b782043301235cc5d0e53d")


class TestFreeBasis:
    def test_ranks(self):
        expected = {11: 3, 23: 5, 47: 9, 59: 11}
        for p, rank in expected.items():
            basis = schreier_free_basis(p)
            assert basis.rank == rank
            assert len(basis.words) == rank == len(basis.matrices)

    def test_membership_and_consistency(self):
        basis = schreier_free_basis(23)
        for w, m in zip(basis.words, basis.matrices):
            assert m == evaluate_word(w, (GEN_S, GEN_T))
            assert m.det() == 1
            assert m.c % 23 == 0

    def test_rejects_torsion_prime(self):
        with pytest.raises(ValueError):
            schreier_free_basis(13)

    def test_freeness_evidence_no_short_torsion(self):
        # no nonempty product of up to 4 basis letters is elliptic:
        # a torsion element would lift with trace in {-1, 0, 1}
        basis = schreier_free_basis(11)
        letters = []
        for m in basis.matrices:
            letters.append(m)
            letters.append(m.inv())
        eye = Mat2.identity()
        k = len(basis.matrices)

        def reduced(word):
            # letters interleave as m, m^-1; adjacent same-pair letters cancel
            for a, b in zip(word, word[1:]):
                if a // 2 == b // 2 and a != b:
                    return False
            return True

        for length in range(1, 5):
            for word in itertools.product(range(2 * k), repeat=length):
                if not reduced(word):
                    continue
                g = eye
                for i in word:
                    g = g * letters[i]
                assert not g.proj_eq(eye)
                assert abs(g.a + g.d) >= 2

    def test_constructor_rejects_outsiders(self):
        with pytest.raises(ValueError):
            FreeBasis(11, [], [Mat2(1, 0, 1, 1)])


class TestLift:
    def test_projective_consistency(self):
        basis = schreier_free_basis(11)
        lift = lift_to_sl2(basis)
        assert len(lift.presentation.generators) == 3
        for lifted, proj in zip(lift.assignment.matrices, basis.matrices):
            assert lifted.proj_eq(proj)

    def test_overgroup_descriptors(self):
        lift = lift_to_sl2(schreier_free_basis(11))
        names = [og.name for og in lift.overgroups]
        assert names == ["K x <eps>", "sl2"]
        for og in lift.overgroups:
            og.assignment.check(og.presentation)
            # embedding words evaluate to the subgroup generators
            for w, m in zip(og.words, lift.assignment.matrices):
                assert evaluate_word(w, og.assignment.matrices) == m

    def test_lifted_h1_rank(self):
        # free group of rank k with no invariant vectors: free rank (k-1)(n+1)
        lift = lift_to_sl2(schreier_free_basis(11))
        k = len(lift.presentation.generators)
        for n in (1, 2, 3):
            inv = h1(lift.presentation, lift.assignment.rep(n))
            assert inv.free_rank == (k - 1) * (n + 1)

    def test_nonextendable_certificate(self):
        lift = lift_to_sl2(schreier_free_basis(11))
        # the unit cocycle: X on the first generator, 0 on the others
        cocycle = Cocycle.from_stacked(lift.presentation, [1, 0, 0, 0, 0, 0],
                                       2)
        cert = certify_nonextendable(lift.presentation, lift.assignment, 1,
                                     cocycle, lift.overgroups)
        checks = Certificate.from_json(cert.to_json()).verify()
        assert checks and all(c["pass"] for c in checks)
        refuted = {e["name"] for e in cert.payload["overgroups"]}
        assert refuted == {"K x <eps>", "sl2"}
