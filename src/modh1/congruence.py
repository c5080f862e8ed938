"""Congruence subgroups of the modular group.

Gamma_0(N) and Gamma_1(N) membership, the fractional cocycle that
characterizes Gamma_1(N), coset tables of the projective Gamma_0-bar(p)
through the action on the projective line over F_p, torsion obstructions,
and Schreier free bases with their lifts into the integer matrix group.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .polyrep import GEN_EPS, GEN_S, GEN_T, Mat2
from .presentations import (
    MatrixAssignment,
    Overgroup,
    Presentation,
    Word,
    builtin,
    evaluate_word,
)


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def legendre(a, p):
    """Legendre symbol (a/p) by the Euler criterion."""
    if p <= 2 or not _is_prime(p):
        raise ValueError("odd prime required")
    r = pow(a % p, (p - 1) // 2, p)
    if r == p - 1:
        return -1
    return r


def gamma1_member(g, N):
    """Lower-left divisible by N and both diagonal entries 1 mod N."""
    if g.det() != 1:
        raise ValueError("determinant 1 required")
    return g.c % N == 0 and (g.a - 1) % N == 0 and (g.d - 1) % N == 0


def bN(g, N):
    """The fractional vector g.(1/N, 0) - (1/N, 0) and its integrality.

    The vector is ((a-1)/N, c/N); it is integral exactly for members of
    Gamma_1(N).  One direction is immediate; for the other, a = 1 and c = 0
    mod N force d = 1 mod N through the determinant.
    """
    if g.det() != 1:
        raise ValueError("determinant 1 required")
    value = (Fraction(g.a - 1, N), Fraction(g.c, N))
    integral = value[0].denominator == 1 and value[1].denominator == 1
    return value, integral


_LETTER_S = 0
_LETTER_T = 1


def _projective_image(p, g, point):
    # image of a point of P^1(F_p), labelled as in CosetTable, under g
    if point == p:
        u, v = 1, 0
    else:
        u, v = point, 1
    nu = (g.a * u + g.b * v) % p
    nv = (g.c * u + g.d * v) % p
    if nv == 0:
        if nu == 0:
            raise ValueError("matrix is singular mod p")
        return p
    return (nu * pow(nv, p - 2, p)) % p


class CosetTable:
    """Left cosets of the projective Gamma_0-bar(p), as points of P^1(F_p).

    Point labels are 0..p-1 for (x:1) and p for (1:0).  The base point is
    (1:0), whose stabilizer is exactly the c = 0 mod p subgroup.  The
    table is worked out from p: perm_s and perm_t give the left action of
    the two projective generators, each image computed once, and T^-1
    acts as the inverse permutation of perm_t.  transversal[i] is a word
    with transversal[i] . base = point i, from a breadth-first search
    from the base point over those permutations with letter order S, T,
    T^-1; transversal words are geodesic and every suffix of one is again
    a transversal word.
    """

    __slots__ = ("p", "points", "base", "perm_s", "perm_t", "transversal")

    def __init__(self, p):
        self.p = p
        self.points = range(p + 1)
        self.base = p
        self.perm_s = [self.apply(GEN_S, x) for x in self.points]
        self.perm_t = [self.apply(GEN_T, x) for x in self.points]
        perm_t_inv = [0] * (p + 1)
        for x, y in enumerate(self.perm_t):
            perm_t_inv[y] = x
        moves = ((self.perm_s, Word([(_LETTER_S, 1)])),
                 (self.perm_t, Word([(_LETTER_T, 1)])),
                 (perm_t_inv, Word([(_LETTER_T, -1)])))
        words = [None] * (p + 1)
        words[p] = Word()  # the base point (1:0)
        queue = [p]
        while queue:
            nxt = []
            for x in queue:
                for perm, letter in moves:
                    y = perm[x]
                    if words[y] is None:
                        words[y] = letter * words[x]
                        nxt.append(y)
            queue = nxt
        if None in words:
            raise RuntimeError("action is not transitive")
        self.transversal = words

    def apply(self, g, point):
        """Image of a point under an integer matrix, projectively mod p."""
        return _projective_image(self.p, g, point)


def coset_table(p):
    """Coset table of the c = 0 mod p projective subgroup, index p+1.

    Checks that p is prime; CosetTable(p) works out the rest.
    """
    if not _is_prime(p):
        raise ValueError("%r is not prime" % (p,))
    return CosetTable(p)


def torsion_criterion(p):
    """True when the mod p projective stabilizer group is torsion-free.

    Order 2 elements need -1 to be a square mod p, order 3 elements need
    -3 to be one; both fail together exactly when p = 11 mod 12.
    """
    if p <= 3 or not _is_prime(p):
        raise ValueError("prime p > 3 required")
    return legendre(-1, p) == -1 and legendre(-3, p) == -1


def find_torsion(p):
    """A torsion element with lower-left entry 0 mod p, or None.

    For p = 1 mod 4 conjugating the order 4 generator by (1,0;x,1) with
    x^2 = -1 mod p gives lower-left x^2 + 1; for p = 1 mod 3 conjugating
    the order 6 generator by (1,0;z,1) with z^2 - z + 1 = 0 mod p gives
    lower-left z^2 - z + 1.  Both vanish mod p by construction.
    """
    if p <= 3 or not _is_prime(p):
        raise ValueError("prime p > 3 required")
    if legendre(-1, p) == 1:
        for x in range(1, p):
            if (x * x + 1) % p == 0:
                g = Mat2(1, 0, x, 1)
                return g * GEN_S * g.inv()
    if legendre(-3, p) == 1:
        for z in range(1, p):
            if (z * z - z + 1) % p == 0:
                g = Mat2(1, 0, z, 1)
                return g * GEN_T * g.inv()
    return None


# Elements of the projective modular group in free product normal form:
# strings over the tokens "s" (the involution) and "t", "T" (the order 3
# generator and its inverse), with adjacent tokens always from different
# factors.

_INVERT = str.maketrans("tT", "Tt")


def _syllable_mul(a, b):
    """Normal form of a*b, for normal forms a and b.

    Only the junction changes: walk back from the end of a and forward
    from the start of b while tokens cancel (s s, t T, T t); a t t or T T
    pair merges into one token (t^2 = T), after which the neighbours come
    from the other factor and nothing more cancels.
    """
    i, j = len(a), 0
    while i and j < len(b):
        x, y = a[i - 1], b[j]
        if x != y and (x == "s" or y == "s"):
            break
        if x == y != "s":
            return a[:i - 1] + x.translate(_INVERT) + b[j + 1:]
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _syllable_inv(a):
    return a[::-1].translate(_INVERT)


def _word_to_syllables(word):
    """Normal form of a word in the order 4 and order 6 generators."""
    out = []
    for g, sgn in word.letters:
        tok = "s" if g == _LETTER_S else "t" if sgn == 1 else "T"
        if not out or (out[-1] == "s") != (tok == "s"):
            out.append(tok)
        elif out[-1] == tok != "s":
            out[-1] = tok.translate(_INVERT)
        else:
            out.pop()
    return "".join(out)


_TOKEN_LETTER = {"s": (_LETTER_S, 1), "t": (_LETTER_T, 1),
                 "T": (_LETTER_T, -1)}


def _syllables_to_word(syl):
    return Word(tuple(_TOKEN_LETTER[tok] for tok in syl))


class FreeBasis:
    """A free basis of the projective c = 0 mod p subgroup."""

    __slots__ = ("p", "words", "matrices")

    def __init__(self, p, words, matrices):
        self.p = p
        self.words = list(words)
        self.matrices = list(matrices)
        for m in self.matrices:
            if m.c % p:
                raise ValueError("basis matrix outside the subgroup")

    @property
    def rank(self):
        return len(self.words)


def schreier_free_basis(p):
    """Free basis of the projective c = 0 mod p subgroup, p = 11 mod 12.

    Schreier generators u(l, x) = w(l.x)^-1 l w(x) from the breadth-first
    transversal generate the subgroup; rewriting the two relators through
    the transversal gives exactly one relation per orbit of each generator
    on the points,

        u(S, S.x) u(S, x) = 1,    u(T, T.T.x) u(T, T.x) u(T, x) = 1,

    and those products literally cancel to the empty normal form.  Keeping
    one generator per involution orbit and two per order 3 orbit (dropping
    trivial ones) consumes every relation, so what remains is a free
    basis.  From the geodesic transversal it is already Nielsen-reduced:
    no product or conjugate with another generator or its inverse is
    shorter (the tests check this, as for free groups in Lyndon-Schupp,
    ch. I.2).  The size must land exactly on 1 + (p+1)/6, the rank forced
    by the Euler characteristic of a torsion-free index p+1 subgroup, and
    any mismatch is reported rather than papered over.
    """
    if not torsion_criterion(p):
        raise ValueError("subgroup has torsion for p = %d" % p)
    table = coset_table(p)
    # each transversal word and its inverse are reduced once
    w = [_word_to_syllables(word) for word in table.transversal]
    w_inv = [_syllable_inv(u) for u in w]

    def schreier(perm, tok):
        return [_syllable_mul(_syllable_mul(w_inv[perm[x]], tok), w[x])
                for x in table.points]

    u_s = schreier(table.perm_s, "s")
    u_t = schreier(table.perm_t, "t")

    basis = []
    done = set()
    for x in table.points:
        if x in done:
            continue
        y = table.perm_s[x]
        if y == x:
            raise RuntimeError("involution fixes a point despite criterion")
        done.update((x, y))
        live = sorted((u for u in (u_s[x], u_s[y]) if u), key=len)
        if len(live) == 1:
            raise RuntimeError("involution orbit relation failed")
        if live:
            # mutual inverses; either one carries the orbit
            basis.append(live[0])
    done = set()
    for x in table.points:
        if x in done:
            continue
        y = table.perm_t[x]
        z = table.perm_t[y]
        if len({x, y, z}) != 3:
            raise RuntimeError("order 3 orbit degenerates despite criterion")
        done.update((x, y, z))
        live = sorted((u for u in (u_t[x], u_t[y], u_t[z]) if u), key=len)
        if len(live) == 3:
            # the longest is a product of the other two
            basis.extend(live[:2])
        elif len(live) == 2:
            # with one trivial the remaining pair are mutual inverses
            basis.append(live[0])
        elif len(live) == 1:
            raise RuntimeError("order 3 orbit relation failed")

    expected = 1 + (p + 1) // 6
    if len(basis) != expected:
        raise RuntimeError(
            "Schreier rewriting left %d generators, free rank is %d"
            % (len(basis), expected))
    words = [_syllables_to_word(s) for s in basis]
    mats = [evaluate_word(w, (GEN_S, GEN_T)) for w in words]
    return FreeBasis(p, words, mats)


class Sl2Lift:
    """A free subgroup lifted into the integer matrix group.

    Its only overgroups are the direct product with the center and the
    full group, and both are attached for certificate building.
    """

    __slots__ = ("presentation", "assignment", "overgroups")

    def __init__(self, presentation, assignment, overgroups):
        self.presentation = presentation
        self.assignment = assignment
        self.overgroups = overgroups


def lift_to_sl2(basis):
    """Lift a projective free basis to the determinant 1 matrix group.

    Words are reinterpreted on the order 4 generator s and order 6
    generator t; the lifted subgroup is free on the same basis because the
    projective quotient is injective on it.  The basis matrices are the
    words evaluated on GEN_S and GEN_T, the sl2 assignment's s and t, so
    they are the lifted generators already.
    """
    k = basis.rank
    gens = tuple("x%d" % (i + 1) for i in range(k))
    sub_pres = Presentation("free-lift:%d" % basis.p, gens, ())
    sl2_pres, sl2_assign = builtin("sl2")
    sub_assign = MatrixAssignment(basis.matrices)

    # direct product with the center: z commutes with everything, z^2 = 1
    keps_gens = gens + ("z",)
    z = len(gens)
    relators = [Word(((z, 1), (z, 1)))]
    for i in range(k):
        relators.append(Word(((z, 1), (i, 1), (z, -1), (i, -1))))
    keps = Presentation("K x <eps>", keps_gens, relators)
    keps_assign = MatrixAssignment(basis.matrices + [GEN_EPS])
    overgroups = [
        Overgroup("K x <eps>", keps, keps_assign,
                  [Word(((i, 1),)) for i in range(k)]),
        Overgroup("sl2", sl2_pres, sl2_assign, basis.words),
    ]
    return Sl2Lift(sub_pres, sub_assign, overgroups)


_SAMPLE_LETTERS = (GEN_S, GEN_S.inv(), GEN_T, GEN_T.inv())


def _sample_words(seed, count, max_length):
    # The sampling scheme is part of the certificate format: Mersenne
    # Twister seeded with `seed`, each word drawn as a length in
    # [1, max_length] followed by that many letters from (s, s^-1, t, t^-1).
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randint(1, max_length)
        g = Mat2.identity()
        for _ in range(length):
            g = g * _SAMPLE_LETTERS[rng.randrange(4)]
        yield g


# A sample costs about count * max_length / 2 matrix products; these
# bounds keep the recount of an untrusted certificate to seconds.
SAMPLE_MAX_MODULUS = 10 ** 9
SAMPLE_MAX_COUNT = 10 ** 5
SAMPLE_MAX_LENGTH = 100


def check_sample_fields(N, count, max_length):
    """Raise ValueError unless the sample parameters are within bounds."""
    for name, value, lo, hi in (("modulus", N, 1, SAMPLE_MAX_MODULUS),
                                ("count", count, 1, SAMPLE_MAX_COUNT),
                                ("max_length", max_length, 1,
                                 SAMPLE_MAX_LENGTH)):
        if not lo <= value <= hi:
            raise ValueError("%s must lie in [%d, %d], got %d"
                             % (name, lo, hi, value))


def _sample_record(N, seed, count, max_length):
    # (mismatch count, sha256 hex digest of the sampled matrices' entries);
    # hashlib loads OpenSSL, about 3.6 MB resident, so only samples pay it
    import hashlib

    digest = hashlib.sha256()
    bad = 0
    for g in _sample_words(seed, count, max_length):
        digest.update(b"%d,%d,%d,%d;" % g.entries())
        _, integral = bN(g, N)
        if integral != gamma1_member(g, N):
            bad += 1
    return bad, digest.hexdigest()


def membership_mismatches(N, seed=0, count=10000, max_length=20):
    """Count sampled words where bN integrality and membership disagree."""
    return _sample_record(N, seed, count, max_length)[0]


def certify_membership_sample(N, seed=0, count=10000, max_length=20):
    """A re-runnable record that the cocycle characterization held.

    The certificate pins the sampling scheme and the sha256 digest of the
    sampled matrices; verification regenerates the same words, compares
    the digest and recounts.  This is evidence, not proof, but the full
    equivalence is a short determinant argument either way.
    """
    from .cohomology import CERTIFICATE_FORMAT, Certificate, ClaimRefused

    check_sample_fields(N, count, max_length)
    mismatches, digest = _sample_record(N, seed, count, max_length)
    if mismatches:
        raise ClaimRefused("characterization failed on %d words" % mismatches)
    payload = {
        "format": CERTIFICATE_FORMAT,
        "kind": "membership-sample",
        "modulus": N,
        "seed": seed,
        "count": count,
        "max_length": max_length,
        "mismatches": 0,
        "sample_sha256": digest,
    }
    return Certificate(payload)


def verify_membership_sample_payload(payload, check):
    """Re-run a sampled membership certificate, reporting through check()."""
    try:
        fields = [payload[k] for k in ("modulus", "seed", "count",
                                       "max_length", "mismatches")]
        if any(type(x) is not int for x in fields):  # no bool, float, str
            raise TypeError("integer fields required, got %r" % (fields,))
        N, seed, count, max_length, claimed = fields
        digest = str(payload["sample_sha256"])
        check_sample_fields(N, count, max_length)
    except (KeyError, TypeError, ValueError) as e:
        check("payload fields", False, actual=repr(e))
        return
    check("claimed mismatch count", claimed == 0, 0, claimed)
    recount, sampled = _sample_record(N, seed, count, max_length)
    check("recounted mismatches", recount == claimed, claimed, recount)
    # the digest ties the seed to the words it draws
    check("sampled words digest", sampled == digest, digest, sampled)
