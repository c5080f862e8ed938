"""Pell equations by integer continued fractions.

Everything here runs on exact integers: square roots only through
math.isqrt, the continued fraction of sqrt(D) through the classical
(m, d, a) recurrence, and fundamental solutions through convergents.  The
norm equation solver returns a finite set of representatives that is
complete modulo the automorph attached to the fundamental solution of
t^2 - D s^2 = 4, which is what turns "does a matrix power equation have a
solution" questions into a finite check.
"""

from __future__ import annotations

from math import gcd, isqrt


def _check_nonsquare(D):
    if D <= 1:
        raise ValueError("D must exceed 1")
    r = isqrt(D)
    if r * r == D:
        raise ValueError("D must not be a perfect square")


def _icbrt(n):
    """Floor cube root of a nonnegative integer."""
    if n < 0:
        raise ValueError("nonnegative value required")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


class CFExpansion:
    """Continued fraction of sqrt(D): integer part plus repeating period."""

    __slots__ = ("a0", "period")

    def __init__(self, a0, period):
        self.a0 = int(a0)
        self.period = list(int(a) for a in period)

    def __repr__(self):
        return "CFExpansion(%d, %r)" % (self.a0, self.period)


class PellSolution:
    """A positive solution of x^2 - D y^2 = norm, checked on construction."""

    __slots__ = ("d", "x", "y", "norm")

    def __init__(self, d, x, y, norm):
        self.d = int(d)
        self.x = int(x)
        self.y = int(y)
        self.norm = int(norm)
        if self.x <= 0 or self.y <= 0:
            raise ValueError("solution entries must be positive")
        if self.x * self.x - self.d * self.y * self.y != self.norm:
            raise ValueError("not a solution")

    def pair(self):
        return (self.x, self.y)

    def __repr__(self):
        return "PellSolution(d=%d, x=%d, y=%d, norm=%d)" % (
            self.d, self.x, self.y, self.norm)


def cf_sqrt(D):
    """Periodic continued fraction of sqrt(D) for nonsquare D > 1.

    The state recurrence m' = d a - m, d' = (D - m'^2) / d, a' = floor
    ((a0 + m') / d') stays in integers; the period closes exactly when d
    returns to 1, at the term 2 a0.
    """
    _check_nonsquare(D)
    a0 = isqrt(D)
    m, d, a = 0, 1, a0
    period = []
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        period.append(a)
        if d == 1:
            return CFExpansion(a0, period)


def _convergents(D):
    """Yield convergents (h, k) of sqrt(D), cycling the period forever."""
    cf = cf_sqrt(D)
    h_prev, h = 1, cf.a0
    k_prev, k = 0, 1
    yield h, k
    while True:
        for a in cf.period:
            h_prev, h = h, a * h + h_prev
            k_prev, k = k, a * k + k_prev
            yield h, k


def pell_plus(D):
    """Minimal positive solution of x^2 - D y^2 = 1."""
    _check_nonsquare(D)
    limit = 2 * len(cf_sqrt(D).period) + 2
    for i, (h, k) in enumerate(_convergents(D)):
        if h * h - D * k * k == 1:
            return PellSolution(D, h, k, 1)
        if i > limit:
            raise RuntimeError("fundamental solution not found in two periods")


def pell_minus(D):
    """Minimal positive solution of x^2 - D y^2 = -1, or None.

    A solution exists exactly when the period of sqrt(D) has odd length,
    in which case the convergent just before the first period end gives it.
    """
    _check_nonsquare(D)
    r = len(cf_sqrt(D).period)
    if r % 2 == 0:
        return None
    for i, (h, k) in enumerate(_convergents(D)):
        if h * h - D * k * k == -1:
            return PellSolution(D, h, k, -1)
        if i > r:
            raise RuntimeError("odd period did not produce a norm -1 hit")


def _odd_four_search(D, plus):
    # Odd solutions of t^2 - D s^2 = +-4 require D = 5 mod 8.  When one
    # exists the associated unit is at worst a sixth root of the norm 1
    # fundamental, so s is bounded by a small cube root expression.
    bound = _icbrt(8 * (plus.x + (isqrt(D) + 1) * plus.y)) + 3
    for s in range(1, bound + 1, 2):
        for norm in (-4, 4):
            r2 = D * s * s + norm
            if r2 > 0:
                t = isqrt(r2)
                if t * t == r2 and t % 2 == 1:
                    return t, s, norm
    return None


def pell4(D):
    """Minimal positive solution of t^2 - D s^2 = 4.

    Case analysis on D mod 4: for D = 0 the solutions are exactly the
    doubled-first-coordinate solutions over D/4; for D = 2, 3 both
    coordinates are forced even, halving to the norm 1 equation; for
    D = 1 odd solutions can appear, but only when D = 5 mod 8, and a
    bounded search finds the fundamental one.
    """
    _check_nonsquare(D)
    if D % 4 == 0:
        inner = pell_plus(D // 4)
        return PellSolution(D, 2 * inner.x, inner.y, 4)
    plus = pell_plus(D)
    if D % 8 == 5:
        odd = _odd_four_search(D, plus)
        if odd is not None:
            t, s, norm = odd
            if norm == -4:
                t, s = (t * t + D * s * s) // 2, t * s
            return PellSolution(D, t, s, 4)
    return PellSolution(D, 2 * plus.x, 2 * plus.y, 4)


def automorph_step(D, automorph, solution, inverse=False):
    """Nearest integral solution along the automorph orbit.

    One step multiplies u + y sqrt(D) by (t + s sqrt(D)) / 2.  When t and
    s are odd that can land outside the integers on solutions of odd norm;
    the step then takes the square or cube of the automorph instead (the
    cube always acts integrally), so orbits of integer solutions stay
    integral.
    """
    t, s = automorph.x, automorph.y
    if inverse:
        s = -s
    nu, ny = solution
    den = 1
    for _ in range(3):
        nu, ny = t * nu + D * s * ny, s * nu + t * ny
        den *= 2
        if nu % den == 0 and ny % den == 0:
            return (nu // den, ny // den)
    raise RuntimeError("automorph orbit left the integers")


def brute_solve(D, N, bound):
    """All solutions of u^2 - D y^2 = N with |u|, |y| <= bound."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    out = set()
    for y in range(0, bound + 1):
        r2 = N + D * y * y
        if r2 < 0:
            continue
        u = isqrt(r2)
        if u * u != r2 or u > bound:
            continue
        for su in (u, -u):
            for sy in (y, -y):
                out.add((su, sy))
    return sorted(out)


def _filters_pass(filters, u, y):
    return all((cu * u + cy * y) % m == 0 for cu, cy, m in filters)


def solve_norm_equation(D, N, filters=(), cover=10 ** 4):
    """Solutions of u^2 - D y^2 = N modulo the pell4 automorph.

    Returns (representatives, automorph).  The representative list is
    complete: every solution is a power of the automorph applied to one of
    them, and when filters (cu, cy, m) with cu*u + cy*y = 0 mod m are
    given, every solution satisfying all of them is automorph-equivalent
    to a returned representative that also satisfies them (filtered
    representatives are taken from whichever end of the orbit period is
    nearer, keeping their entries small).  An empty list is a definitive
    no.

    Representatives come from the classical fundamental-solution window
    |y| <= y1 sqrt(|N| / (2 (x1 -+ 1))) for the norm 1 solution (x1, y1),
    widened so that five automorph steps from some representative reach
    any solution with |y| up to `cover`.
    """
    _check_nonsquare(D)
    if N == 0:
        raise ValueError("degenerate norm 0")
    for cu, cy, m in filters:
        if m < 1:
            raise ValueError("filter modulus must be positive")
    plus = pell_plus(D)
    aut = pell4(D)
    x1, y1 = plus.x, plus.y

    if N > 0:
        y_sq = (y1 * y1 * N) // (2 * (x1 + 1))
    else:
        y_sq = (y1 * y1 * (-N)) // (2 * (x1 - 1)) if x1 > 1 else -N
    window = isqrt(y_sq) + 2
    # each automorph step scales y by at least t/2, so five steps cover a
    # factor t^5/32; widening the window by that ratio keeps any solution
    # with |y| <= cover within five steps of a representative
    window = max(window, (32 * cover) // (aut.x ** 5) + 2, 1)

    reps = set()
    for y in range(0, window + 1):
        r2 = N + D * y * y
        if r2 < 0:
            continue
        u = isqrt(r2)
        if u * u != r2:
            continue
        for su in (u, -u):
            for sy in (y, -y):
                reps.add((su, sy))
    reps = sorted(reps)
    if not filters:
        return reps, aut

    modulus = 1
    for _, _, m in filters:
        modulus = modulus * m // gcd(modulus, m)
    if modulus == 1:
        return reps, aut

    # order of the norm 1 automorph matrix mod the filter modulus
    a = (x1 % modulus, (D * y1) % modulus, y1 % modulus, x1 % modulus)
    e = 1
    cur = a
    cap = 4 * modulus * modulus + 4
    while cur != (1, 0, 0, 1):
        cur = ((cur[0] * a[0] + cur[1] * a[2]) % modulus,
               (cur[0] * a[1] + cur[1] * a[3]) % modulus,
               (cur[2] * a[0] + cur[3] * a[2]) % modulus,
               (cur[2] * a[1] + cur[3] * a[3]) % modulus)
        e += 1
        if e > cap:
            raise RuntimeError("automorph order search exceeded its cap")

    # scan each orbit period on residues only, then rebuild the exact
    # hits through the nearer end of the period so entries stay as small
    # as the orbit allows: one exact walk forward to the last hit with
    # k <= e/2 and one backward (y1 -> -y1) to the last hit beyond it
    half = e // 2
    out = set()
    for u0, y0 in reps:
        u, y = u0 % modulus, y0 % modulus
        forward, backward = set(), set()
        for k in range(e):
            if _filters_pass(filters, u, y):
                if k <= half:
                    forward.add(k)
                else:
                    backward.add(e - k)
            u, y = (x1 * u + D * y1 * y) % modulus, (y1 * u + x1 * y) % modulus
        if 0 in forward:
            out.add((u0, y0))
        for s, steps in ((y1, forward), (-y1, backward)):
            u, y = u0, y0
            for j in range(1, max(steps, default=0) + 1):
                u, y = x1 * u + D * s * y, s * u + x1 * y
                if j in steps:
                    out.add((u, y))
    return sorted(out), aut
