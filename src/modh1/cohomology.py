"""First cohomology H^1(G, M) for a finitely presented G acting on M = Z^d.

The cocycle lattice Z^1 is the integer kernel of the relator condition
matrix R, and the coboundary lattice B^1 is the column span of the stacked
(rho(g) - 1), written B.  As a kernel, Z^1 is saturated in Z^N, so the
torsion of H^1 = Z^1 / B^1 is the torsion of Z^N / B^1: the nontrivial
elementary divisors of B, read off one Smith form of B that carries no
transform.  The free rank is dim Z^1 - rank B.  h1 returns these
invariants and no cocycles; restriction_cokernel reads H^1 of a subgroup
modulo the classes restricted from an overgroup the same way, with B
replaced by the restriction image beside B.  class_order reads the order
of one given class by a second route, in coordinates of a kernel basis
of Z^1.  Everything is exact.

Every certificate kind, the congruence membership sample too, is written,
priced and re-checked here.  A certify_* function raises ClaimRefused, a
ValueError, when its claim is false; any other ValueError is bad input.

The closed forms at the end of the module give the expected free ranks for
the projective modular group and its extension by the swap, together with
the dimension counts they are assembled from.  Each formula checks its own
divisibility, so a non-integral value raises instead of silently rounding.
"""

from __future__ import annotations

import json

from .congruence import _sample_record
from .linalg import (
    AbelianInvariants,
    IntMatrix,
    _mod2_refutation,
    _primitive_kernel,
    cokernel_invariants,
    hstack,
    kernel_basis,
    kills_kernel,
    rank,
    row_echelon,
    smith_normal_form,
    solve_integer,
    vstack,
)
from .polyrep import (
    GEN_S,
    GEN_T,
    GEN_W,
    Mat2,
    eta,
)
from .presentations import (
    MatrixAssignment,
    Presentation,
    Word,
    _check_relators,
    builtin,
    evaluate_word,
    pull_back_functional,
    relator_condition_matrix,
    transport_blocks,
)


class Cocycle:
    """A 1-cocycle, stored as its values on the presentation's generators."""

    __slots__ = ("presentation", "values")

    def __init__(self, presentation, values):
        values = tuple(tuple(_integer(x) for x in v) for v in values)
        if len(values) != len(presentation.generators):
            raise ValueError("one value vector per generator required")
        dims = {len(v) for v in values}
        if len(dims) > 1:
            raise ValueError("value vectors must share a dimension")
        self.presentation = presentation
        self.values = values

    def stacked(self):
        return [x for v in self.values for x in v]

    @classmethod
    def from_stacked(cls, presentation, vec, dim):
        k = len(presentation.generators)
        if len(vec) != k * dim:
            raise ValueError("stacked vector has the wrong length")
        return cls(presentation,
                   [vec[i * dim:(i + 1) * dim] for i in range(k)])

    def __add__(self, other):
        if self.presentation is not other.presentation \
                and self.presentation.generators != other.presentation.generators:
            raise ValueError("cocycles live on different presentations")
        return Cocycle(self.presentation,
                       [[x + y for x, y in zip(u, v)]
                        for u, v in zip(self.values, other.values)])

    def __eq__(self, other):
        return isinstance(other, Cocycle) and self.values == other.values \
            and self.presentation.generators == other.presentation.generators

    def __repr__(self):
        return "Cocycle(%r, %r)" % (self.presentation.name, self.values)


def _integer(x):
    # x if it is an int: a bool, float or string from JSON is not coerced
    if type(x) is not int:
        raise TypeError("integer required, got %r" % (x,))
    return x


def coboundary_matrix(rep):
    """Stacked (rho(g) - 1) for all generators; columns span B^1."""
    eye = IntMatrix.identity(rep[0].rows)
    return vstack([m - eye for m in rep])


def cocycle_basis(presentation, rep):
    """A lattice basis of Z^1, as columns of the returned matrix."""
    return kernel_basis(relator_condition_matrix(presentation, rep))


def h1(presentation, rep):
    """The AbelianInvariants of H^1 of the presented group acting through rep.

    Z^1 is saturated and holds B^1, so the torsion of H^1 is that of
    Z^N / B^1, and its free rank is that of Z^N / B^1 less rank R.
    """
    return _saturated_quotient(relator_condition_matrix(presentation, rep),
                               coboundary_matrix(rep))


def _saturated_quotient(R, M):
    # The AbelianInvariants of (integer kernel of R) / (column span of M).
    # The kernel Z of R in Z^N is saturated, so Z^N / Z is free, and when
    # M's columns lie in Z, Z / span(M) has the torsion of Z^N / span(M)
    # and free rank dim Z - rank M: both are read off one transform-free
    # Smith form of M, with dim Z = N - rank R.  One echelon E of R gives
    # rank R, its row count, and the check that M's columns lie in Z: E's
    # rows span R's rational row space, so E*M = 0 exactly when R*M = 0.
    E = row_echelon(R)
    if not (E * M).is_zero():
        raise RuntimeError(
            "cocycles or coboundaries outside the cocycle lattice")
    inv = cokernel_invariants(M)
    return AbelianInvariants(inv.free_rank - E.rows, inv.torsion)


def _is_cocycle(presentation, rep, cocycle):
    # Whether the cocycle vanishes on every relator; ValueError when rho_n
    # does not kill one.
    _check_relators(presentation, rep)
    b = IntMatrix.from_columns([cocycle.stacked()])
    return all(X.is_zero()
               for X in transport_blocks(presentation.relators, rep, b))


def class_order(presentation, rep, cocycle):
    """Order of the class of the cocycle in H^1; None means infinite.

    Computed in coordinates of a kernel basis of Z^1, a route independent
    of the Smith form of B that h1 reads its invariants from.
    """
    lattice = smith_normal_form(cocycle_basis(presentation, rep))
    x = lattice.coords(cocycle.stacked())
    if x is None:
        raise ValueError("not a cocycle for this presentation")
    B = coboundary_matrix(rep)
    m = smith_normal_form(lattice.coordinate_lattice(B)).order(x)
    if m is not None and solve_integer(
            B, [m * v for v in cocycle.stacked()]) is None:
        raise RuntimeError("class order %d does not kill the class" % m)
    return m


def restrict(cocycle, words, sub_presentation, ambient_rep):
    """Pull a cocycle back along a subgroup embedding.

    words[i] spells the i-th subgroup generator in the ambient generators.
    The restricted cocycle's value on a subgroup generator is the transported
    value of the ambient cocycle on the corresponding word.  The subgroup
    acts through rho_n of the words' 2x2 values, which must kill each
    subgroup relator (else ValueError), and the result must be a cocycle.
    """
    b = IntMatrix.from_columns([cocycle.stacked()])
    out = Cocycle(sub_presentation, [
        X.column(0) for X in transport_blocks(words, ambient_rep, b)])
    ambient = ambient_rep.assignment.matrices
    sub_rep = MatrixAssignment(
        [evaluate_word(w, ambient) for w in words]).rep(ambient_rep.n)
    if not _is_cocycle(sub_presentation, sub_rep, out):
        raise RuntimeError("restriction produced a non-cocycle")
    return out


def restriction_image_matrix(ambient_presentation, ambient_rep, words):
    """Columns: restrictions of a Z^1 basis of the ambient group to words."""
    return vstack(transport_blocks(
        words, ambient_rep,
        cocycle_basis(ambient_presentation, ambient_rep)))


def restriction_cokernel(ambient_presentation, ambient_rep,
                         sub_presentation, sub_rep, words):
    """Invariants of H^1(subgroup) / image of H^1(ambient group) on words.

    Read the way h1 reads H^1, with B replaced by M = [RZ | B_sub], the
    restricted ambient cocycles beside the subgroup's coboundaries.  The
    subgroup's Z^1 is saturated in Z^N and holds M's columns, so the
    quotient Z^1 / span(M) has the torsion of Z^N / span(M), and its free
    rank is dim Z^1 - rank M.  No kernel basis of the subgroup's Z^1 and
    no Smith transform is built.
    """
    return _saturated_quotient(
        relator_condition_matrix(sub_presentation, sub_rep),
        hstack([restriction_image_matrix(ambient_presentation, ambient_rep,
                                         words),
                coboundary_matrix(sub_rep)]))


def _refuse(M, target, claim):
    # when the writer's functionals do not refute target: ClaimRefused(claim)
    # if it lies in M's column lattice, else a ValueError
    if solve_integer(M, target) is not None:
        raise ClaimRefused(claim)
    raise ValueError("the class lies outside the lattice, but no exact or "
                     "mod 2 functional the writer tries refutes it")


def _decimal_or_hex(x):
    # x itself when Python writes it in decimal, else its %#x text: json
    # and "%d" refuse an int of more digits than sys.get_int_max_str_digits()
    try:
        "%d" % x
    except ValueError:
        return "%#x" % x
    return x


def _kills(M):
    # the test of whether u.M = 0 (mod m), exactly when m = 0
    return lambda u, m: all((x % m if m else x) == 0
                            for x in M.transpose().mulvec(u))


def _refutes(u, m, target, tests):
    # (whether u, m refute membership of target, their stored refutation):
    # u.target != 0 (mod m) goes first, then each test of u, m in turn
    ub = sum(x * y for x, y in zip(u, target))
    ok = (ub % m if m else ub) != 0 and all(test(u, m) for test in tests)
    return ok, {"functional": u, "modulus": m, "pairing": _decimal_or_hex(ub)}


class ClaimRefused(ValueError):
    """The claim to certify is false; no certificate exists."""


def certify_nonextendable(sub_presentation, sub_assignment, n, cocycle,
                          overgroups):
    """Build a certificate that no listed overgroup's cohomology hits the class.

    Each overgroup is a presentations.Overgroup.  For each overgroup L the
    membership question "is the cocycle, modulo coboundaries, the
    restriction of a cocycle on L" is a lattice membership problem in the
    span of M = [RZ | B_sub], RZ the restricted Z^1 of L.  One exact
    functional u serves every overgroup it refutes: among the primitive
    vectors of ker(B_sub^T), one per free column of its rational echelon,
    the one with u.b != 0 and the smallest largest entry.  For each L, u is
    tested the way the re-check tests it, with the functional pulled back
    to L in R_L's row space, so that u.M = 0 and b is outside even the
    rational span of M; no Z^1 basis of L is built.  For an overgroup u
    does not refute, solve_integer(M, b) decides: ClaimRefused when b lies
    in M's lattice, else a plain ValueError (a class of finite order
    modulo M has no exact refutation, and no other u is tried).
    """
    sub_rep, payload = _claim("nonextendable", sub_presentation,
                              sub_assignment, n, cocycle, overgroups)
    B_sub = coboundary_matrix(sub_rep)
    target = cocycle.stacked()
    coboundaries = _kills(B_sub)
    u = _smallest_pairing(_primitive_kernel(B_sub.transpose()), target)
    for og, entry in zip(overgroups, payload["overgroups"]):
        ok = u is not None
        if ok:
            restricted = _restriction_test(og.presentation, og.assignment,
                                           og.words, n)
            ok, refutation = _refutes(u, 0, target, [coboundaries, restricted])
        if not ok:
            RZ = restriction_image_matrix(og.presentation,
                                          og.assignment.rep(n), og.words)
            _refuse(hstack([RZ, B_sub]), target,
                    "the class extends to overgroup %r" % og.name)
        entry["refutation"] = refutation
    return Certificate(payload)


def _smallest_pairing(vectors, target):
    # the first of the vectors with the least largest |entry| among those
    # pairing nonzero with target, on its support; None if every one is 0
    support = [(i, y) for i, y in enumerate(target) if y]
    paired = [u for u in vectors if sum(u[i] * y for i, y in support)]
    return min(paired, key=lambda u: max(map(abs, u)), default=None)


def _restriction_test(presentation, assignment, words, n):
    # the test of whether m = 0 and u.RZ = 0, RZ the restriction to words
    # of a Z^1 basis of the overgroup: u.RZ is v.Z for v pulled back to the
    # overgroup, so neither Z^1 nor RZ is built, and R_L only when m = 0
    def test(u, m):
        if m:
            return False
        rep = assignment.rep(n)
        return kills_kernel(relator_condition_matrix(presentation, rep),
                            pull_back_functional(words, rep, u))
    return test


def certify_noncoboundary(presentation, assignment, n, cocycle):
    """A certificate that the cocycle is not a coboundary: mod 2 by a 0/1
    functional when b is outside B's F_2 column span, else exact."""
    rep, payload = _claim("noncoboundary", presentation, assignment, n,
                          cocycle)
    B = coboundary_matrix(rep)
    target = cocycle.stacked()
    u, m = _mod2_refutation(B, target), 2
    if u is None:
        u, m = _smallest_pairing(_primitive_kernel(B.transpose()), target), 0
    if u is None:
        _refuse(B, target, "the cocycle is a coboundary")
    ok, payload["refutation"] = _refutes(u, m, target, [_kills(B)])
    if not ok:
        raise RuntimeError("functional does not refute the coboundaries")
    return Certificate(payload)


def certify_membership_sample(N, seed=0, count=10000, max_length=20):
    """A re-runnable record that the cocycle characterization held.

    The certificate pins the sampling scheme of congruence._sample_words
    and the sha256 digest of the sampled matrices; verification
    regenerates the same words, compares the digest and recounts.  This is
    evidence, not proof, but the full equivalence is a short determinant
    argument either way.
    """
    check_sample_fields(N, count, max_length)
    mismatches, digest = _sample_record(N, seed, count, max_length)
    if mismatches:
        raise ClaimRefused("characterization failed on %d words" % mismatches)
    return Certificate({
        "format": CERTIFICATE_FORMAT,
        "kind": "membership-sample",
        "modulus": N,
        "seed": seed,
        "count": count,
        "max_length": max_length,
        "mismatches": 0,
        "sample_sha256": digest,
    })


def _claim(kind, presentation, assignment, n, cocycle, overgroups=()):
    # rho_n and the payload but for its refutations, once the payload's
    # letters are within the re-check's budget and the cocycle checks out
    payload = {"format": CERTIFICATE_FORMAT, "kind": kind, "degree": n,
               "subgroup": _presentation_payload(presentation, assignment),
               "cocycle": {"values": [list(v) for v in cocycle.values]}}
    if kind == "nonextendable":
        payload["overgroups"] = [
            dict(_presentation_payload(og.presentation, og.assignment),
                 name=og.name, embedding=[w.format(og.presentation.generators)
                                          for w in og.words])
            for og in overgroups]
    check_cost(check_degree(n), _payload_letters(payload))
    rep = assignment.rep(n)
    if not _is_cocycle(presentation, rep, cocycle):
        raise ValueError("not a cocycle")
    return rep, payload


CERTIFICATE_FORMAT = "modh1-certificate-1"

# Re-checking a degree n certificate takes a forward echelon of the
# overgroup's stacked (n + 1)-square relator blocks: `verify-certificate`
# on a `witness --kind ba:120,1` certificate (gl2 overgroup) takes about
# 0.3 s on a 2-vCPU Xeon.  The CLI writes no higher degree.
CERT_MAX_DEGREE = 120

# Each letter of a relator costs at most one rho_n of a 2x2 prefix, its
# Fox Jacobian term, about (n + 1)^2 entry products, built once per Rep.
# Writing and re-checking, each letter of an embedding word costs one
# product of a row vector with an (n + 1)-square matrix; in the writer's
# refusal, for a class no kernel functional refutes, one product of such
# a matrix with the restricted Z^1 basis, a block of n + 1 rows.  A
# generator used inverted there adds one rho_n of its 2x2 inverse.
# The budget on letters times (n + 1)^3 is that of `witness --kind
# ba:120,1`, the costliest certificate the CLI writes: 30 letters (sl2 and
# gl2 relators, embedding words s, t).
CERT_MAX_COST = 30 * (CERT_MAX_DEGREE + 1) ** 3

# A membership sample costs about count * max_length / 2 matrix products;
# these bounds keep the recount of an untrusted certificate to seconds.
SAMPLE_MAX_MODULUS = 10 ** 9
SAMPLE_MAX_COUNT = 10 ** 5
SAMPLE_MAX_LENGTH = 100


def check_degree(n):
    """n if it is a non-bool int in [0, CERT_MAX_DEGREE], else ValueError."""
    if type(n) is not int or not 0 <= n <= CERT_MAX_DEGREE:
        raise ValueError("degree must be an integer in [0, %d], got %r"
                         % (CERT_MAX_DEGREE, n))
    return n


def check_cost(n, letters):
    """ValueError unless letters * (n + 1)^3 is within CERT_MAX_COST."""
    cost = letters * (n + 1) ** 3
    if cost > CERT_MAX_COST:
        raise ValueError("%d letters at degree %d cost %d, over the budget "
                         "of %d" % (letters, n, cost, CERT_MAX_COST))


def check_sample_fields(N, count, max_length):
    """Raise ValueError unless the sample parameters are within bounds."""
    for name, value, lo, hi in (("modulus", N, 1, SAMPLE_MAX_MODULUS),
                                ("count", count, 1, SAMPLE_MAX_COUNT),
                                ("max_length", max_length, 1,
                                 SAMPLE_MAX_LENGTH)):
        if not lo <= value <= hi:
            raise ValueError("%s must lie in [%d, %d], got %d"
                             % (name, lo, hi, value))


def _payload_letters(payload):
    # letters in the relators and embedding words of a payload, the one
    # count the writer and the re-check price: each token is a letter,
    # the empty word's "1" too, and only a token with ^ is parsed, so that
    # an exponent like s^1000000000 is not expanded
    texts = list(payload["subgroup"]["relators"])
    for og in payload.get("overgroups", ()):
        texts += og["relators"] + og["embedding"]
    return sum(abs(int(token.partition("^")[2] or 1)) if "^" in token else 1
               for text in texts for token in str.split(text))


def _presentation_payload(presentation, assignment):
    return {
        "name": presentation.name,
        "generators": list(presentation.generators),
        "relators": [w.format(presentation.generators)
                     for w in presentation.relators],
        "projective": assignment.projective,
        "matrices": [list(m.entries()) for m in assignment.matrices],
    }


def _presentation_from_payload(payload):
    gens = payload["generators"]
    if len(payload["matrices"]) != len(gens):
        raise ValueError("one matrix per generator required")
    pres = Presentation(payload["name"], gens,
                        [Word.parse(w, gens) for w in payload["relators"]])
    assignment = MatrixAssignment([Mat2(*e) for e in payload["matrices"]],
                                  projective=payload["projective"])
    return pres, assignment


class Certificate:
    """A self-contained, re-checkable claim about a cocycle class."""

    __slots__ = ("payload",)

    def __init__(self, payload):
        self.payload = payload

    def to_json(self):
        return json.dumps(self.payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(json.loads(text))

    def verify(self):
        """Re-check every claim from stored data; returns a check list.

        A field of the wrong JSON type (a float cocycle value, a bool matrix
        entry, a string flag) or a degree out of bounds fails "payload
        fields".
        """
        checks = []

        def check(name, ok, expected="ok", actual=None):
            checks.append({"name": name, "pass": bool(ok),
                           "expected": expected,
                           "actual": actual if actual is not None
                           else ("ok" if ok else "failed")})

        p = self.payload
        fmt = p.get("format") if isinstance(p, dict) else "not a JSON object"
        if fmt != CERTIFICATE_FORMAT:
            check("format", False, CERTIFICATE_FORMAT, fmt)
            return checks
        if p.get("kind") == "membership-sample":
            self._verify_membership_sample(check)
            return checks
        try:
            self._verify_claims(check)
        except TypeError as e:
            check("payload fields", False, actual=repr(e))
        return checks

    def _verify_membership_sample(self, check):
        # re-run the sampled word test and compare its count and digest
        p = self.payload
        try:
            fields = [p[k] for k in ("modulus", "seed", "count",
                                     "max_length", "mismatches")]
            if any(type(x) is not int for x in fields):  # no bool, float, str
                raise TypeError("integer fields required, got %r" % (fields,))
            N, seed, count, max_length, claimed = fields
            digest = str(p["sample_sha256"])
            check_sample_fields(N, count, max_length)
        except (KeyError, TypeError, ValueError) as e:
            check("payload fields", False, actual=repr(e))
            return
        check("claimed mismatch count", claimed == 0, 0, claimed)
        recount, sampled = _sample_record(N, seed, count, max_length)
        check("recounted mismatches", recount == claimed, claimed, recount)
        # the digest ties the seed to the words it draws
        check("sampled words digest", sampled == digest, digest, sampled)

    def _verify_claims(self, check):
        p = self.payload
        kind = p.get("kind")
        try:
            n = check_degree(p["degree"])
            check_cost(n, _payload_letters(p))
        except (KeyError, TypeError, ValueError) as e:
            check("payload fields", False, actual=repr(e))
            return
        sub_pres, sub_assign = _presentation_from_payload(p["subgroup"])
        try:
            sub_assign.check(sub_pres)
            check("subgroup relators", True)
        except ValueError as e:
            check("subgroup relators", False, actual=str(e))
            return
        sub_rep = sub_assign.rep(n)
        b = Cocycle(sub_pres, p["cocycle"]["values"])
        check("cocycle condition", _is_cocycle(sub_pres, sub_rep, b))
        coboundaries = _kills(coboundary_matrix(sub_rep))
        if kind == "noncoboundary":
            self._verify_refutation(check, "coboundary refutation",
                                    p["refutation"], b.stacked(),
                                    [coboundaries])
            return
        if kind != "nonextendable":
            check("kind", False, "nonextendable", kind)
            return
        if not p["overgroups"]:
            check("overgroups listed", False, "at least one", "none")
        for og in p["overgroups"]:
            label = og["name"]
            pres, assign = _presentation_from_payload(og)
            try:
                assign.check(pres)
                check("%s relators" % label, True)
            except ValueError as e:
                check("%s relators" % label, False, actual=str(e))
                continue
            words = [pres.parse_word(w) for w in og["embedding"]]
            ok = len(words) == len(sub_assign.matrices) and all(
                evaluate_word(w, assign.matrices) == m
                for w, m in zip(words, sub_assign.matrices))
            check("%s embedding" % label, ok)
            if not ok:
                continue
            self._verify_refutation(check, "%s refutation" % label,
                                    og["refutation"], b.stacked(),
                                    [coboundaries, _restriction_test(
                                        pres, assign, words, n)])

    @staticmethod
    def _verify_refutation(check, label, ref, target, tests):
        u = [_integer(x) for x in ref["functional"]]
        m = _integer(ref["modulus"])
        if len(u) != len(target):
            check(label, False, "functional length %d" % len(target), len(u))
            return
        ok, stored = _refutes(u, m, target, tests)
        check(label, ok, "u.M = 0, u.b != 0 (mod %d)" % m,
              "u.b = %s" % stored["pairing"])


def make_ba(n, a):
    """The sl2 cocycle with value a(X^n - Y^n) on the order 4 generator.

    Defined for even n; vanishes on the order 6 generator.  The value lies in
    ker(S + 1), so the transported relator values all vanish.
    """
    if n < 2 or n % 2:
        raise ValueError("even n >= 2 required")
    pres, assignment = builtin("sl2")
    v = [0] * (n + 1)
    v[0] = a
    v[n] = -a
    b = Cocycle(pres, [v, [0] * (n + 1)])
    if not _is_cocycle(pres, assignment.rep(n), b):
        raise RuntimeError("constructed values violate the cocycle condition")
    return b


def make_beps(n, eps):
    """The symmetric coordinate cocycles on the swap-extended group gl2.

    eps is a vector of length beps_count(n); the value on the order 4
    generator is the symmetric form with coefficients eps_k at the odd
    exponent pairs (and, when n = 2 mod 4, eps_m on the middle monomial).
    The values on the other generators are zero.  Distinct 0/1 vectors give
    non-cohomologous cocycles, which is where the 2^m lower bound on the
    2-primary torsion comes from; the individual class orders vary and are
    infinite once the free rank is positive.
    """
    pres, assignment = builtin("gl2")
    b = Cocycle.from_stacked(pres, _beps_column(n, eps), n + 1)
    if not _is_cocycle(pres, assignment.rep(n), b):
        raise RuntimeError("constructed values violate the cocycle condition")
    return b


def _beps_column(n, eps):
    # make_beps's generator values, stacked: v on s, zero on t and w
    if n < 2 or n % 2:
        raise ValueError("even n >= 2 required")
    m = beps_count(n)
    eps = [int(e) for e in eps]
    if len(eps) != m:
        raise ValueError("expected %d epsilon entries" % m)
    v = [0] * (n + 1)
    pairs = m if n % 4 == 0 else m - 1
    for k in range(1, pairs + 1):
        v[2 * k - 1] += eps[k - 1]
        v[n - 2 * k + 1] += eps[k - 1]
    if pairs < m:
        v[n // 2] += eps[m - 1]
    return v + [0] * (2 * n + 2)


def beps_relation_lattice(n):
    """Generators of the eps vectors whose symmetric cocycle is a coboundary.

    Columns of the returned m x r matrix span the lattice of integer eps
    with b_eps in B^1.  If every generator is even, the 2^m classes of 0/1
    vectors are pairwise distinct: a difference of two such vectors that is
    a coboundary would be a lattice point with an odd entry.
    """
    m = beps_count(n)
    pres, assignment = builtin("gl2")
    rep = assignment.rep(n)
    E = IntMatrix.from_columns(
        [_beps_column(n, [int(j == k) for j in range(m)]) for k in range(m)],
        rows=3 * (n + 1))
    if not all(X.is_zero() for X in transport_blocks(pres.relators, rep, E)):
        raise RuntimeError("constructed values violate the cocycle condition")
    ker = kernel_basis(hstack([E, coboundary_matrix(rep)]))
    return IntMatrix([ker.data[i] for i in range(m)], cols=ker.cols)


def _even_only(n):
    if n < 0 or n % 2:
        raise ValueError("even n required")


def _exact_div(num, den):
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("closed form %d/%d is not integral" % (num, den))
    return q


def _sign_half(n):
    # (-1)^(n/2 + 1): -1 when n = 0 mod 4, +1 when n = 2 mod 4
    return -1 if n % 4 == 0 else 1


def rank_psl2(n):
    """Free rank of H^1 of the projective modular group, even n."""
    _even_only(n)
    return _exact_div(n + 1 + 3 * _sign_half(n) - 4 * eta(n), 6)


def rank_gl2(n):
    """Free rank of H^1 of the swap-extended modular group, even n."""
    _even_only(n)
    return _exact_div(n - 5 + 3 * _sign_half(n) - 4 * eta(n), 12)


def cokernel_rank(n):
    """Free rank of H^1(index 2 subgroup) / restricted classes, even n."""
    _even_only(n)
    return _exact_div(n + 7 + 3 * _sign_half(n) - 4 * eta(n), 12)


def normalized_cocycle_dim(n):
    """dim ker(S + 1): cocycles normalized to vanish on the order 6 generator."""
    _even_only(n)
    return _exact_div(n + 1 + _sign_half(n), 2)


def t_fixed_dim(n):
    """dim ker(T - 1): forms fixed by the order 6 generator."""
    _even_only(n)
    return _exact_div(n + 1 + 2 * eta(n), 3)


def normalized_sym_dim(n):
    """dim of the swap-symmetric part of ker(S + 1)."""
    _even_only(n)
    return _exact_div(n + 1 + _sign_half(n), 4)


def t_fixed_sym_dim(n):
    """dim of the swap-symmetric part of ker(T - 1)."""
    _even_only(n)
    return _exact_div(n + 4 + 2 * eta(n), 6)


def beps_count(n):
    """Number m of coordinate slots in make_beps.

    The 2^m classes of 0/1 vectors are pairwise distinct in H^1, so the
    2-primary torsion of the swap-extended group has order at least 2^m.
    """
    _even_only(n)
    return n // 4 if n % 4 == 0 else (n + 2) // 4


def _stacked_kernel_dim(mats):
    return mats[0].cols - rank(vstack(mats))


def w_invariant_h1_rank(n):
    """Free rank of H^1 of the swap-extended group via swap invariants.

    Restriction to the index 2 projective modular subgroup is rationally
    injective with image the swap-invariant classes.  Normalized cocycles
    (vanishing on the order 6 generator) are identified with ker(S + 1) by
    evaluation at S, the swap acts there by plain multiplication, and the
    invariant coboundaries correspond to swap-symmetric T-fixed forms.  So
    the rank is the difference of two kernel dimensions, computed here from
    honest kernels rather than the closed forms.
    """
    _even_only(n)
    eye = IntMatrix.identity(n + 1)
    S, T, W = MatrixAssignment([GEN_S, GEN_T, GEN_W]).rep(n)
    if _stacked_kernel_dim([S - eye, T - eye]) != 0:
        raise ValueError("nonzero invariant forms; normalization fails")
    sym_normalized = _stacked_kernel_dim([S + eye, W - eye])
    sym_fixed = _stacked_kernel_dim([T - eye, W - eye])
    return sym_normalized - sym_fixed
