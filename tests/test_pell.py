"""Tests for the Pell machinery.

Minimality claims are never frozen from the implementation itself: each
fundamental solution is checked against an exhaustive scan below it, and
the norm equation solver's representative window is validated by walking
every brute-force solution back onto a representative with a few automorph
steps.
"""

from math import gcd, isqrt

import pytest

from modh1.pell import (
    CFExpansion,
    PellSolution,
    automorph_step,
    brute_solve,
    cf_sqrt,
    pell4,
    pell_minus,
    pell_plus,
    solve_norm_equation,
)


def nonsquares(limit):
    return [D for D in range(2, limit + 1) if isqrt(D) ** 2 != D]


class TestContinuedFraction:
    def test_known_expansions(self):
        assert (cf_sqrt(2).a0, cf_sqrt(2).period) == (1, [2])
        assert (cf_sqrt(3).a0, cf_sqrt(3).period) == (1, [1, 2])
        assert (cf_sqrt(5).a0, cf_sqrt(5).period) == (2, [4])
        assert (cf_sqrt(7).a0, cf_sqrt(7).period) == (2, [1, 1, 1, 4])

    def test_rejects_squares_and_small(self):
        for bad in (0, 1, 4, 9, 49, -3):
            with pytest.raises(ValueError):
                cf_sqrt(bad)

    def test_palindrome_shape(self):
        # period minus its last term reads the same reversed; last = 2*a0
        for D in nonsquares(120):
            cf = cf_sqrt(D)
            body = cf.period[:-1]
            assert body == body[::-1]
            assert cf.period[-1] == 2 * cf.a0

    def test_period_end_convergent_norm(self):
        # convergent just before the period end has norm (-1)^r
        from modh1.pell import _convergents

        for D in nonsquares(120):
            r = len(cf_sqrt(D).period)
            gen = _convergents(D)
            for _ in range(r - 1):
                next(gen)
            h, k = next(gen)
            assert h * h - D * k * k == (-1) ** r


class TestFundamentalSolutions:
    def test_plus_example(self):
        assert pell_plus(3).pair() == (2, 1)

    def test_plus_famous_large(self):
        sol = pell_plus(61)
        assert sol.pair() == (1766319049, 226153980)

    def test_plus_minimal_up_to_50(self):
        for D in nonsquares(50):
            sol = pell_plus(D)
            assert sol.norm == 1
            assert sol.y <= 10 ** 6
            positives = [(u, y) for u, y in brute_solve(D, 1, sol.x + 1)
                         if u > 0 and y > 0]
            assert min(positives, key=lambda p: p[1]) == sol.pair()

    def test_minus_examples(self):
        assert pell_minus(3) is None
        assert pell_minus(2).pair() == (1, 1)
        assert pell_minus(5).pair() == (2, 1)
        assert pell_minus(13).pair() == (18, 5)

    def test_minus_iff_odd_period(self):
        for D in nonsquares(50):
            sol = pell_minus(D)
            odd = len(cf_sqrt(D).period) % 2 == 1
            assert (sol is not None) == odd
            sols = brute_solve(D, -1, 2000)
            if sol is None:
                assert sols == []
            else:
                assert sol.norm == -1
                positives = [(u, y) for u, y in sols if u > 0 and y > 0]
                assert positives and min(positives,
                                         key=lambda p: p[1]) == sol.pair()

    def test_rejects_squares(self):
        with pytest.raises(ValueError):
            pell_plus(16)
        with pytest.raises(ValueError):
            pell_minus(1)
        with pytest.raises(ValueError):
            pell4(25)


class TestPell4:
    def test_exactness_and_minimality(self):
        for D in nonsquares(50) + [61]:
            sol = pell4(D)
            assert sol.norm == 4
            # nothing smaller: scan every y below the claimed fundamental
            for y in range(1, sol.y):
                r2 = 4 + D * y * y
                assert isqrt(r2) ** 2 != r2
            # and no smaller t at the same y
            assert sol.x * sol.x == 4 + D * sol.y * sol.y

    def test_near_square_family(self):
        # D = a^2 - 4 always has the trace solution (a, 1)
        for a in range(3, 40):
            assert pell4(a * a - 4).pair() == (a, 1)

    def test_odd_type_values(self):
        assert pell4(5).pair() == (3, 1)
        assert pell4(13).pair() == (11, 3)
        assert pell4(21).pair() == (5, 1)
        # 37 = 5 mod 8 but all solutions are even
        assert pell4(37).pair() == (146, 24)


class TestAutomorphStep:
    def test_preserves_norm(self):
        for D, N in ((2, -1), (3, 1), (5, -4), (13, 3), (21, 4), (12, -8)):
            aut = pell4(D)
            for sol in brute_solve(D, N, 500):
                stepped = automorph_step(D, aut, sol)
                u, y = stepped
                assert u * u - D * y * y == N
                back = automorph_step(D, aut, stepped, inverse=True)
                assert back == sol

    def test_moves_along_orbit(self):
        aut = pell4(3)
        assert automorph_step(3, aut, (2, 1)) == (7, 4)
        assert automorph_step(3, aut, (7, 4), inverse=True) == (2, 1)


class TestSolveNormEquation:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            solve_norm_equation(5, 0)
        with pytest.raises(ValueError):
            solve_norm_equation(5, -4, filters=[(1, 1, 0)])

    def test_no_solution_case(self):
        reps, aut = solve_norm_equation(12, -4)
        assert reps == []
        assert aut.pair() == (4, 1)

    def test_filtered_example(self):
        reps, aut = solve_norm_equation(5, -4, filters=[(1, 1, 2)])
        assert (-1, 1) in reps
        for u, y in reps:
            assert u * u - 5 * y * y == -4
            assert (u + y) % 2 == 0
        # filters of modulus 1 hold everywhere: the unfiltered
        # representatives come back, with no automorph order search
        unfiltered, _ = solve_norm_equation(5, -4)
        assert len(unfiltered) == 32
        reps, _ = solve_norm_equation(5, -4, filters=[(1, 1, 1)])
        assert reps == unfiltered

    def test_filtered_matches_stepwise_reference(self):
        # reference: every point of each representative's orbit period,
        # reached by single steps through the nearer end of the period
        def reference(D, N, filters):
            reps, aut = solve_norm_equation(D, N, cover=0)
            x1, y1 = pell_plus(D).pair()
            modulus = 1
            for _, _, m in filters:
                modulus = modulus * m // gcd(modulus, m)
            e, u, y = 1, x1 % modulus, y1 % modulus
            while (u, y) != (1, 0):
                u, y = (x1 * u + D * y1 * y) % modulus, (y1 * u + x1 * y) % modulus
                e += 1
            out = set()
            for u0, y0 in reps:
                for k in range(e):
                    s, steps = (y1, k) if 2 * k <= e else (-y1, e - k)
                    u, y = u0, y0
                    for _ in range(steps):
                        u, y = x1 * u + D * s * y, s * u + x1 * y
                    if all((cu * u + cy * y) % m == 0 for cu, cy, m in filters):
                        out.add((u, y))
            return sorted(out), aut

        # hits two steps out on both sides: period 6 and 12, hits at
        # k = 1, 2, 4, 5 and k = 2, 3, 8, 9
        cases = [(2, -4, [(0, 1, 5)]), (2, -4, [(1, 2, 9)]),
                 (5, -4, [(1, 1, 2)]), (3, 1, [(1, 0, 2), (0, 1, 2)]),
                 (13, -12, [(1, 1, 3)]), (21, -36, [(1, 1, 6), (1, 0, 4)])]
        # the dihedral-decision filters of (a b; c d) = (3 1; -25 -8) and
        # (8 -1; 41 -5)
        for a, b, c, d in ((3, 1, -25, -8), (8, -1, 41, -5)):
            m = d - a
            cases.append(((a + d) ** 2 - 4, -4 * b * b,
                          [(1, -m, 2 * abs(b)),
                           (m, -(m * m + 2 * b * c), 2 * b * b)]))
        for D, N, filters in cases:
            reps, aut = solve_norm_equation(D, N, filters=filters, cover=0)
            expected, _ = reference(D, N, filters)
            assert reps == expected, (D, N, filters)
            assert aut.pair() == pell4(D).pair()

    def test_filter_can_empty(self):
        # both coordinates even would force norm 0 mod 4, never 1
        reps, _ = solve_norm_equation(3, 1, filters=[(1, 0, 2), (0, 1, 2)])
        assert reps == []

    def test_representatives_solve_equation(self):
        for D, N in ((2, 7), (3, -2), (5, 11), (13, -4), (29, 4)):
            reps, aut = solve_norm_equation(D, N)
            for u, y in reps:
                assert u * u - D * y * y == N
            assert aut.x * aut.x - D * aut.y * aut.y == 4

    def test_complete_set_corpus(self):
        # every brute solution walks back onto a representative within
        # five automorph steps
        corpus_d = [2, 3, 5, 8, 12, 13, 21, 29, 37, 45, 61, 76, 92, 99]
        corpus_n = [1, -1, 4, -4, -3, 12, -20, 97]
        for D in corpus_d:
            aut = pell4(D)
            for N in corpus_n:
                reps, _ = solve_norm_equation(D, N)
                repset = set(reps)
                for sol in brute_solve(D, N, 10 ** 4):
                    if sol in repset:
                        continue
                    found = False
                    for inverse in (True, False):
                        cur = sol
                        for _ in range(5):
                            cur = automorph_step(D, aut, cur, inverse=inverse)
                            if cur in repset:
                                found = True
                                break
                        if found:
                            break
                    assert found, (D, N, sol)


class TestBruteSolve:
    def test_examples(self):
        assert brute_solve(3, -1, 1000) == []
        assert (1, 1) in brute_solve(2, -1, 10)
        assert (2, 1) in brute_solve(3, 1, 10)

    def test_respects_bound(self):
        for u, y in brute_solve(2, 1, 20):
            assert abs(u) <= 20 and abs(y) <= 20

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            brute_solve(2, 1, 0)


class TestSolutionContainer:
    def test_validates(self):
        with pytest.raises(ValueError):
            PellSolution(3, 2, 1, -1)
        with pytest.raises(ValueError):
            PellSolution(3, -2, 1, 1)
        sol = PellSolution(3, 2, 1, 1)
        assert sol.pair() == (2, 1)
