"""Maximal amenable subgroups of SL2(Z) and PSL2(Z).

A determinant-1 integer matrix other than +-identity is elliptic,
parabolic, or hyperbolic according to |trace| < 2, = 2, > 2.  Every
maximal amenable subgroup of PSL2(Z) is isomorphic to C3, to Z, or to
the infinite dihedral group; pulling back along SL2(Z) -> PSL2(Z) turns
these into C6, Z x C2, and the semidirect product Z x| C4 in which the
order-4 generator inverts Z.  For a hyperbolic matrix the choice between
Z and the dihedral type is decided exactly: it asks for a trace-zero
integral matrix conjugating the element to its inverse, which unwinds to
a generalized Pell equation handled by the pell module.  The equation is
solved for a Lagrange-reduced conjugate of the element, whose filter
modulus is bounded by the discriminant, and the witness is conjugated
back (Buchmann-Vollmer, Binary Quadratic Forms, ch. 6).  The reduction
and every witness candidate are checked and ranked as integer 4-tuples
(a, b, c, d); only the answer is built as a Mat2.
"""

from __future__ import annotations

from math import gcd

from .linalg import xgcd
from .pell import solve_norm_equation
from .polyrep import Mat2

PSL_C2 = "C2"
PSL_C3 = "C3"
PSL_Z = "Z"
PSL_DINF = "Dinf"

_SL2_OF_PSL = {
    PSL_C2: "C4",
    PSL_C3: "C6",
    PSL_Z: "Z x C2",
    PSL_DINF: "Z x| C4",
}


class ElementClass:
    """Trace classification of a determinant-1 integer matrix."""

    __slots__ = ("tag", "order")

    def __init__(self, tag, order=None):
        if tag not in ("central", "elliptic", "parabolic", "hyperbolic"):
            raise ValueError("unknown class tag %r" % (tag,))
        if (order is not None) != (tag == "elliptic"):
            raise ValueError("finite order accompanies elliptic matrices only")
        if order is not None and order not in (2, 3, 4, 6):
            raise ValueError("finite order must be one of 2, 3, 4, 6")
        self.tag = tag
        self.order = order

    def __eq__(self, other):
        return (isinstance(other, ElementClass)
                and self.tag == other.tag and self.order == other.order)

    def __repr__(self):
        if self.order is None:
            return "ElementClass(%r)" % (self.tag,)
        return "ElementClass(%r, order=%d)" % (self.tag, self.order)


class QForm:
    """Integer binary quadratic form a x^2 + b x y + c y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = int(a)
        self.b = int(b)
        self.c = int(c)

    @property
    def discriminant(self):
        return self.b * self.b - 4 * self.a * self.c

    def coefficients(self):
        return (self.a, self.b, self.c)

    def __eq__(self, other):
        return (isinstance(other, QForm)
                and self.coefficients() == other.coefficients())

    def __repr__(self):
        return "QForm(%d, %d, %d)" % (self.a, self.b, self.c)


class AmenableTypeReport:
    """Isomorphism type of the maximal amenable subgroup containing a matrix.

    psl_type names the subgroup of PSL2(Z); sl2_type, its preimage in
    SL2(Z), is read from it.  witness is the trace-zero matrix realizing
    the dihedral symmetry when psl_type is Dinf; generator is the
    parabolic generator when the input was parabolic.
    """

    __slots__ = ("psl_type", "witness", "generator")

    def __init__(self, psl_type, witness=None, generator=None):
        if psl_type not in _SL2_OF_PSL:
            raise ValueError("unknown PSL2 type %r" % (psl_type,))
        if (witness is not None) != (psl_type == PSL_DINF):
            raise ValueError("witness accompanies the dihedral type only")
        if generator is not None and psl_type != PSL_Z:
            raise ValueError("generator accompanies the type Z only")
        self.psl_type = psl_type
        self.witness = witness
        self.generator = generator

    @property
    def sl2_type(self):
        return _SL2_OF_PSL[self.psl_type]

    def __repr__(self):
        extra = ""
        if self.witness is not None:
            extra = ", witness=%r" % (self.witness,)
        if self.generator is not None:
            extra = ", generator=%r" % (self.generator,)
        return "AmenableTypeReport(%r%s)" % (self.psl_type, extra)


def _check_det(g):
    if g.det() != 1:
        raise ValueError("determinant must be 1")


def classify(g):
    """Sort a determinant-1 matrix into the trace trichotomy.

    Cayley-Hamilton pins the order of the elliptic cases: trace 0 gives
    g^2 = -1 (order 4), trace 1 gives g^3 = -1 (order 6), trace -1 gives
    g^3 = 1 (order 3).
    """
    _check_det(g)
    ident = Mat2.identity()
    if g == ident or g == -ident:
        return ElementClass("central")
    tr = g.trace()
    if tr == 0:
        return ElementClass("elliptic", order=4)
    if tr == 1:
        return ElementClass("elliptic", order=6)
    if tr == -1:
        return ElementClass("elliptic", order=3)
    if tr == 2 or tr == -2:
        return ElementClass("parabolic")
    return ElementClass("hyperbolic")


def qform(g):
    """The binary quadratic form attached to a hyperbolic matrix.

    For g = (a b; c d) this is b x^2 + (d - a) x y - c y^2; its values
    control which trace-zero matrices conjugate g to its inverse.  The
    discriminant is trace^2 - 4, positive and never a perfect square for
    a hyperbolic matrix.
    """
    if classify(g).tag != "hyperbolic":
        raise ValueError("quadratic form requires a hyperbolic matrix")
    form = QForm(g.b, g.d - g.a, -g.c)
    if form.discriminant != g.trace() ** 2 - 4:
        raise RuntimeError("discriminant drifted from trace^2 - 4")
    return form


def _mul(x, y):
    """Product of 2x2 matrices given as entry tuples (a, b, c, d)."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _inv(x):
    """Inverse of a determinant-1 matrix given as an entry tuple."""
    return (x[3], -x[1], -x[2], x[0])


def _reduce(g):
    """Conjugate a hyperbolic g to h g h^-1 = (a b; c d), |d-a| <= |b| <= |c|.

    g, h and h g h^-1 are entry tuples, and (h, h g h^-1) is returned.
    This is Lagrange reduction of the attached form (b, d - a, -c):
    conjugating by T^k keeps c and moves d - a by -2 k c, conjugating by
    S sends (a b; c d) to (d -c; -b a).  T lands d - a in the half-open
    (-|c|, |c|] and only runs when |d - a| > |c|; every S that does not
    finish strictly shrinks |c|, so the loop ends after O(log) rounds, and
    already reduced input is returned with h = 1.
    """
    a, b, c, d = g
    h0, h1, h2, h3 = 1, 0, 0, 1
    while not abs(d - a) <= abs(b) <= abs(c):
        m, ac = d - a, abs(c)
        if abs(m) > ac:
            k = -((ac - m) // (2 * ac))
            if c < 0:
                k = -k
            # T^k g T^-k and T^k h, with T^k = (1 k; 0 1)
            a, b, d = a + k * c, b + k * m - k * k * c, d - k * c
            h0, h1 = h0 + k * h2, h1 + k * h3
        else:
            a, b, c, d = d, -c, -b, a
            h0, h1, h2, h3 = -h2, -h3, h0, h1
    return (h0, h1, h2, h3), (a, b, c, d)


def _pell_witnesses(g):
    """Every witness the filtered norm equation gives for g, checked.

    g and the witnesses are entry tuples.
    """
    a, b, c, d = g
    if b == 0 or c == 0:
        # b = 0 with det 1 forces a = d = +-1 and trace +-2, likewise c.
        raise RuntimeError("hyperbolic matrix cannot have a zero corner")
    disc = (a + d) ** 2 - 4
    m = d - a
    filters = (
        (1, -m, 2 * abs(b)),
        (m, -(m * m + 2 * b * c), 2 * b * b),
    )
    # the bare fundamental-solution window already makes emptiness a
    # proof; the cover widening only serves the pell module's short-walk
    # oracle and would slow the congruence scan down here
    reps, _ = solve_norm_equation(disc, -4 * b * b, filters=filters, cover=0)
    out = []
    g_inv = _inv(g)
    for u, y in reps:
        x, r = divmod(u - m * y, 2 * b)
        if r:
            raise RuntimeError("congruence filter failed to make x integral")
        z, r = divmod(m * x - c * y, b)
        if r:
            raise RuntimeError("congruence filter failed to make z integral")
        witness = (x, y, z, -x)
        if -x * x - y * z != 1 or _mul(witness, g) != _mul(g_inv, witness):
            raise RuntimeError("norm equation solution is not a witness")
        out.append(witness)
    return out


def _witness_key(w):
    return (max(map(abs, w)), w)


def dinf_decision(g):
    """Trace-zero integral B with B g B^-1 = g^-1, or None if none exists.

    Write g = (a b; c d) and B = (x y; z -x).  In B g = g^-1 B the
    (1,2) and (2,1) entries agree identically and the (2,2) entry
    repeats the (1,1) entry, so the whole matrix equation reduces to the
    single condition b z = (d - a) x - c y.  Combined with det B = 1,
    i.e. x^2 + y z = -1, that says the form b x^2 + (d - a) x y - c y^2
    takes the value -b at (x, y).  Multiplying by 4 b and substituting
    u = 2 b x + (d - a) y gives

        u^2 - D y^2 = -4 b^2,   D = trace^2 - 4,

    together with two congruences that make the substitution reversible:
    2 b | u - (d - a) y (so x is integral) and
    2 b^2 | (d - a) u - ((d - a)^2 + 2 b c) y (so z is integral).
    The pell solver enumerates automorph-orbit representatives of the
    norm equation under exactly these congruence filters, so an empty
    answer is a proof that no witness exists.

    The scan costs grow with the filter modulus 2 b^2, so the equation is
    solved for the reduced conjugate h g h^-1 of _reduce instead: there
    |d - a| <= |b| <= |c| forces b c > 0 and D >= 4 b^2, so the modulus
    is at most D/2 whatever the entries of g.  B is a witness for
    h g h^-1 exactly when h^-1 B h is one for g.  Witnesses are closed
    under B -> +-g^{+-1} B, and the returned one is walked along that
    orbit while (max |entry|, entries) drops.

    A sign-twisted conjugation B g B^-1 = -g^-1 would force trace(g) = 0
    by comparing traces, impossible for hyperbolic g, so it is not
    searched.
    """
    if classify(g).tag != "hyperbolic":
        raise ValueError("dihedral decision requires a hyperbolic matrix")
    g = g.entries()
    h, reduced = _reduce(g)
    h_inv = _inv(h)
    if reduced != _mul(_mul(h, g), h_inv):
        raise RuntimeError("reduction is not a conjugation")
    found = _pell_witnesses(reduced)
    if not found:
        return None
    best = min((_mul(_mul(h_inv, w), h) for w in found), key=_witness_key)
    g_inv = _inv(g)
    for step in (g, g_inv):
        while True:
            moved = _mul(step, best)
            moved = min(moved, tuple(-t for t in moved), key=_witness_key)
            if _witness_key(moved) >= _witness_key(best):
                break
            best = moved
    x, y, z, t = best
    if x * t - y * z != 1 or x + t != 0 or _mul(best, g) != _mul(g_inv, best):
        raise RuntimeError("conjugated witness does not invert the input")
    return Mat2(x, y, z, t)


def parabolic_generator(g):
    """Generator of the maximal amenable subgroup containing a parabolic g.

    The subgroup is the stabilizer of the fixed line of g, an infinite
    cyclic group in PSL2 terms.  A primitive integral vector (p, q)
    spanning the fixed line is completed to a determinant-1 matrix h via
    the extended Euclidean algorithm; then h (1 1; 0 1) h^-1 or its
    inverse generates, the sign chosen so that g is +- a positive power
    of the result.  The choice of completion drops out of the conjugate.
    """
    if classify(g).tag != "parabolic":
        raise ValueError("parabolic generator requires a parabolic matrix")
    rep = g if g.trace() == 2 else -g
    a, b, c, d = rep.entries()
    # Rows of rep - identity are proportional, so either row spans the
    # annihilator of the fixed line; b = 0 forces a = d = 1 and c != 0.
    if b != 0:
        v0, v1 = b, 1 - a
    else:
        v0, v1 = 1 - d, c
    common = gcd(v0, v1)
    p, q = v0 // common, v1 // common
    _, t0, t1 = xgcd(p, q)
    h = Mat2(p, -t1, q, t0)
    if h.det() != 1:
        raise RuntimeError("eigenvector completion lost determinant 1")
    conj = h.inv() * rep * h
    if conj.a != 1 or conj.d != 1 or conj.c != 0 or conj.b == 0:
        raise RuntimeError("conjugated parabolic is not upper unitriangular")
    step = 1 if conj.b > 0 else -1
    gen = h * Mat2(1, step, 0, 1) * h.inv()
    if gen ** abs(conj.b) != rep:
        raise RuntimeError("parabolic generator does not power up to input")
    return gen


def max_amenable_type(g):
    """Report the maximal amenable subgroup type containing a matrix.

    Elliptic matrices generate a finite subgroup and the report names
    that finite type.  Parabolic matrices have a unique maximal amenable
    overgroup of type Z, reported with its generator.  Hyperbolic
    matrices get Z or the dihedral type per dinf_decision, with the
    conjugating witness in the dihedral case.
    """
    cls = classify(g)
    if cls.tag == "central":
        raise ValueError("central matrices lie in every maximal amenable "
                         "subgroup; no type is attached to them")
    if cls.tag == "elliptic":
        if cls.order == 4:
            return AmenableTypeReport(PSL_C2)
        return AmenableTypeReport(PSL_C3)
    if cls.tag == "parabolic":
        return AmenableTypeReport(PSL_Z, generator=parabolic_generator(g))
    witness = dinf_decision(g)
    if witness is None:
        return AmenableTypeReport(PSL_Z)
    return AmenableTypeReport(PSL_DINF, witness=witness)
