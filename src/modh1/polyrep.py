"""The action of 2x2 integer matrices on binary forms of degree n.

A form P(X, Y) = sum_k coeffs[k] X^(n-k) Y^k is stored as its coefficient
vector of length n + 1.  A matrix A = (a b; c d) acts by substitution on the
row vector (X, Y):

    (A . P)(X, Y) = P(a X + c Y, b X + d Y)

so that A . (B . P) = (AB) . P and the matrix of the action in the monomial
basis (column-vector convention) is a homomorphism GL_2(Z) -> GL_{n+1}(Z).

rho_matrix walks the columns (a X + c Y)^(n-k) (b X + d Y)^k one from the
next, in O(n^2) entry products for any 2x2 matrix, singular ones included;
rep_trace reads the diagonal off the same walk.

Mat2(...) checks every entry.  Products, inverses, negations and the
identity, built here from checked ints, go through _mat2, which does not
check again; nothing outside this module calls it.
"""

from __future__ import annotations

from math import comb

from .linalg import IntMatrix


class Mat2:
    """A 2x2 integer matrix (a b; c d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        for x in (a, b, c, d):
            if type(x) is not int:  # a bool from JSON is no entry either
                raise TypeError("integer entries required")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls):
        return _mat2(1, 0, 0, 1)

    @classmethod
    def parse(cls, text):
        """Parse 'a,b;c,d' (possibly with spaces) into a Mat2.

        >>> Mat2.parse("0,-1; 1,0")
        Mat2(0, -1, 1, 0)
        """
        rows = text.strip().split(";")
        if len(rows) != 2:
            raise ValueError("expected two rows separated by ';'")
        entries = []
        for row in rows:
            parts = [p.strip() for p in row.split(",")]
            if len(parts) != 2:
                raise ValueError("expected two entries per row")
            entries.extend(int(p) for p in parts)
        return cls(*entries)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inv(self):
        det = self.det()
        if det == 1:
            return _mat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return _mat2(-self.d, self.b, self.c, -self.a)
        raise ValueError("determinant must be +-1")

    def __mul__(self, other):
        return _mat2(self.a * other.a + self.b * other.c,
                     self.a * other.b + self.b * other.d,
                     self.c * other.a + self.d * other.c,
                     self.c * other.b + self.d * other.d)

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = Mat2.identity()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return _mat2(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.a == other.a
                and self.b == other.b and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "Mat2(%d, %d, %d, %d)" % (self.a, self.b, self.c, self.d)

    def format(self):
        return "%d,%d;%d,%d" % (self.a, self.b, self.c, self.d)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def is_identity(self):
        return self.a == self.d == 1 and self.b == self.c == 0

    def proj_eq(self, other):
        """Equality in PGL terms, i.e. up to a global sign."""
        return self == other or self == -other


def _mat2(a, b, c, d):
    m = object.__new__(Mat2)  # no entry check: see the module docstring
    m.a, m.b, m.c, m.d = a, b, c, d
    return m


# Standard generators: the order 4 rotation, the order 6 element, the swap
# (determinant -1) and the central involution.
GEN_S = Mat2(0, -1, 1, 0)
GEN_T = Mat2(0, -1, 1, 1)
GEN_W = Mat2(0, 1, 1, 0)
GEN_EPS = Mat2(-1, 0, 0, -1)


def _columns(A, n):
    # Column k of rho_n(A), k = 0..n, is P^(n-k) Q^k for P = aX + cY and
    # Q = bX + dY, as n + 1 coefficients.  When P or Q is a monomial m Z
    # (Z = X or Y, m possibly 0), a column is a walked power of the other
    # form, scaled by a power of m and shifted.  Otherwise column 0 is P^n
    # by the binomial theorem and each further column is the one before it
    # times Q, divided exactly by P.
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a, b, c, d = A.a, A.b, A.c, A.d
    if a == 0 or c == 0:
        return _monomial_walk(b, d, a or c, c != 0, n)
    if b == 0 or d == 0:
        return _monomial_walk(a, c, b or d, d != 0, n)[::-1]
    col = [comb(n, i) * a ** (n - i) * c ** i for i in range(n + 1)]
    out = [col]
    for _ in range(n):
        # g = col * Q / P, top coefficient first: (g P)_i = a g_i + c g_(i-1)
        g, left, prev = [], 0, 0
        for x in col:
            prev, r = divmod(b * x + d * left - c * prev, a)
            if r:
                raise RuntimeError("rho_n column not divisible by aX + cY")
            g.append(prev)
            left = x
        if d * left != c * prev:
            raise RuntimeError("rho_n column not divisible by aX + cY")
        out.append(g)
        col = g
    return out


def _monomial_walk(alpha, beta, m, low, n):
    # Column k is (m Z)^e (alpha X + beta Y)^k, e = n - k and Z = Y if low
    # else X: the walked power of the linear form, times m^e, padded by e
    # zeros on the side of the other variable.
    out = []
    p = [1]
    for e in range(n, -1, -1):
        scale = m ** e
        col = p if scale == 1 else [scale * x for x in p]
        out.append([0] * e + col if low else col + [0] * e)
        if e:
            p = [alpha * x + beta * y for x, y in zip(p + [0], [0] + p)]
    return out


def rho_matrix(A, n):
    """Matrix of the degree-n action of A, size (n+1) x (n+1).

    Column k holds the coefficients of (a X + c Y)^(n-k) (b X + d Y)^k, the
    image of the basis monomial X^(n-k) Y^k.  The columns are walked one
    from the next, one multiply by a linear form and one exact division
    or scaling each, so the matrix costs O(n^2) entry products.
    """
    return IntMatrix(zip(*_columns(A, n)))


def rep_trace(A, n):
    """Trace of the degree-n action of A, read off its walked columns."""
    return sum(col[k] for k, col in enumerate(_columns(A, n)))


def eta(n):
    """The period 3 quantity: 1, -1, 0 according to n = 0, 1, 2 mod 3."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (1, -1, 0)[n % 3]


def alt_diagonal_sum(n):
    """sum_{k=0}^{n//2} (-1)^k C(n-k, k).

    For even n this equals both eta(n) and the trace of the degree-n action
    of the inverse of the order 6 generator, whose diagonal entries are
    (-1)^k C(n-k, k).
    """
    return sum((-1) ** k * comb(n - k, k) for k in range(n // 2 + 1))

