import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix as SymMatrix

from modh1.cohomology import h1
from modh1.congruence import lift_to_sl2, schreier_free_basis
from modh1.linalg import IntMatrix, hstack, vstack
from modh1.polyrep import GEN_S, GEN_T, Mat2, rho_matrix
from modh1.presentations import (
    Word,
    builtin,
    evaluate_word,
    fox_jacobian,
    relator_condition_matrix,
    transport_blocks,
)


def test_word_parse_and_format():
    gens = ("s", "t")
    w = Word.parse("s t^-2 s^3", gens)
    assert w.letters == ((0, 1), (1, -1), (1, -1), (0, 1), (0, 1), (0, 1))
    assert w.format(gens) == "s t^-1 t^-1 s s s"
    assert Word.parse("", gens) == Word()
    # format writes the empty word as "1", and parse reads it back
    assert Word().format(gens) == "1"
    assert Word.parse(" 1 ", gens) == Word()
    assert (w * w.inverse()).letters[:2] == w.letters[:2]
    assert w.inverse().inverse() == w
    rng = random.Random(5)
    for _ in range(200):
        v = Word([(rng.randrange(2), rng.choice((1, -1)))
                  for _ in range(rng.randrange(6))])
        assert Word.parse(v.format(gens), gens) == v


def test_word_refuses_a_bad_sign():
    with pytest.raises(ValueError, match="signs"):
        Word([(0, 2)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])),
                max_size=10),
       st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])),
                max_size=10))
def test_built_words_equal_checked_words(x, y):
    # parsed words, inverses and products are built without the letter
    # check, and compare and hash equal to the checked Word of their letters
    gens = ("s", "t", "w")
    for w, letters in [
            (Word(x) * Word(y), x + y),
            (Word(x).inverse(), [(g, -s) for g, s in reversed(x)]),
            (Word.parse(" ".join(gens[g] + "^%d" % s for g, s in x), gens),
             x)]:
        checked = Word(letters)
        assert type(w) is Word and type(w.letters) is tuple
        assert w == checked and hash(w) == hash(checked)


def test_word_parse_rejects_unknown():
    try:
        Word.parse("x", ("s", "t"))
    except ValueError:
        pass
    else:
        assert False


def test_builtin_assignments_satisfy_relators():
    for name in ("psl2", "sl2", "pgl2", "gl2", "free:1", "free:3"):
        pres, assign = builtin(name)
        assert len(assign.matrices) == len(pres.generators)
        assign.check(pres)


def test_builtin_exact_relators_for_linear_groups():
    # The non-projective presentations must kill relators exactly, not just
    # up to sign.
    for name in ("sl2", "gl2"):
        pres, assign = builtin(name)
        for rel in pres.relators:
            assert evaluate_word(rel, assign.matrices).is_identity()


def test_evaluate_word():
    pres, assign = builtin("sl2")
    w = pres.parse_word("s t")
    assert evaluate_word(w, assign.matrices) == GEN_S * GEN_T
    winv = pres.parse_word("t^-1 s^-1")
    assert evaluate_word(winv, assign.matrices) == (GEN_S * GEN_T).inv()


def test_sanov_generators_look_free():
    # ping-pong generators: no nonempty freely reduced word of length <= 4
    # evaluates to +-identity
    pres, assign = builtin("free:2")
    mats = assign.matrices
    eye = Mat2.identity()
    words = [[]]
    for _ in range(4):
        nxt = []
        for w in words:
            for letter in ((0, 1), (0, -1), (1, 1), (1, -1)):
                if w and (w[-1][0], -w[-1][1]) == letter:
                    continue
                nxt.append(w + [letter])
        for w in nxt:
            m = evaluate_word(Word(w), mats)
            assert not m.proj_eq(eye)
        words = nxt


def test_transport_concatenation_rule():
    # b(uv) = b(u) + rho(u) b(v) holds for arbitrary generator values.
    rng = random.Random(47)
    pres, assign = builtin("sl2")
    n = 3
    rep = assign.rep(n)
    values = [[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(2)]
    Z = IntMatrix.from_columns([[x for v in values for x in v]])
    for _ in range(20):
        u = Word([(rng.randrange(2), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 5))])
        v = Word([(rng.randrange(2), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 5))])
        bu, bv, buv = (X.column(0)
                       for X in transport_blocks([u, v, u * v], rep, Z))
        mu = evaluate_word(u, assign.matrices)
        assert buv == [x + y for x, y in zip(bu, rho_matrix(mu, n).mulvec(bv))]
    # and b(g g^-1) = 0
    for g in (0, 1):
        w = Word([(g, 1), (g, -1)])
        assert transport_blocks([w], rep, Z)[0].column(0) == [0] * (n + 1)


def exact_inverse(m):
    # sympy's exact inverse of a d x d matrix, independent of the 2x2
    # route the library takes
    return IntMatrix(_sympy_inverse(tuple(map(tuple, m.data))))


@lru_cache(maxsize=None)
def _sympy_inverse(rows):
    inv = SymMatrix(rows).inv()
    return [[int(inv[i, j]) for j in range(len(rows))]
            for i in range(len(rows))]


def reference_transport(word, rep, values):
    # The transport rule letter by letter, with no Jacobian: the running
    # prefix product times b(g), or times -rho(g)^-1 b(g) for g^-1.
    d = rep[0].rows
    total = [0] * d
    acc = IntMatrix.identity(d)
    for g, s in word.letters:
        if s == 1:
            v = values[g]
            step = rep[g]
        else:
            step = exact_inverse(rep[g])
            v = [-x for x in step.mulvec(values[g])]
        for i, x in enumerate(acc.mulvec(v)):
            total[i] += x
        acc = acc * step
    return total


def reference_relator_matrix(presentation, rep):
    # Block column g of relator row r holds the transport of the unit
    # vectors placed at generator g, column by column.
    k = len(presentation.generators)
    d = rep[0].rows
    zero = [[0] * d for _ in range(k)]
    rows = []
    for rel in presentation.relators:
        value = IntMatrix.identity(d)
        for g, s in rel.letters:
            m = rep[g] if s == 1 else exact_inverse(rep[g])
            value = value * m
        if value != IntMatrix.identity(d):
            raise ValueError("representation does not satisfy relator")
        cols = []
        for g in range(k):
            for j in range(d):
                values = [list(v) for v in zero]
                values[g][j] = 1
                cols.append(reference_transport(rel, rep, values))
        rows.append(IntMatrix.from_columns(cols))
    return vstack(rows) if rows else IntMatrix([], cols=k * d)


def jacobian_matrix(blocks, k, d):
    return hstack([blocks.get(g, IntMatrix.zeros(d, d)) for g in range(k)])


@st.composite
def words_in(draw, group):
    # a builtin group, a degree n <= 4, and two words of up to 12 letters
    pres, assign = builtin(group)
    k = len(pres.generators)
    n = draw(st.integers(0, 4))
    letter = st.tuples(st.integers(0, k - 1), st.sampled_from((1, -1)))
    u, v = (Word(draw(st.lists(letter, max_size=12))) for _ in range(2))
    return assign, k, n, u, v


GROUPS = ("sl2", "gl2", "free:3")


class TestFoxJacobian:
    @pytest.mark.parametrize("group", GROUPS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_product_rule(self, group, data):
        # J(uv) = J(u) + rho(u) J(v)
        assign, k, n, u, v = data.draw(words_in(group))
        rep = assign.rep(n)
        # each walk ends at its word's 2x2 value
        (ju, value), (jv, _), (juv, _) = fox_jacobian([u, v, u * v], rep)
        assert value == evaluate_word(u, assign.matrices)
        mu = rho_matrix(value, n)
        d = n + 1
        assert jacobian_matrix(juv, k, d) == (
            jacobian_matrix(ju, k, d) + mu * jacobian_matrix(jv, k, d))

    @pytest.mark.parametrize("group", GROUPS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_blocks_match_letter_by_letter_transport(self, group, data):
        assign, k, n, u, _ = data.draw(words_in(group))
        rep = assign.rep(n)
        d = n + 1
        [(blocks, _)] = fox_jacobian([u], rep)
        assert set(blocks) <= {g for g, _ in u.letters}
        for g in range(k):
            for j in range(d):
                values = [[0] * d for _ in range(k)]
                values[g][j] = 1
                expected = reference_transport(u, rep, values)
                got = blocks[g].column(j) if g in blocks else [0] * d
                assert got == expected
        values = data.draw(st.lists(
            st.lists(st.integers(-9, 9), min_size=d, max_size=d),
            min_size=k, max_size=k))
        Z = IntMatrix.from_columns([[x for v in values for x in v]])
        assert transport_blocks([u], rep, Z)[0].column(0) == (
            reference_transport(u, rep, values))

    @pytest.mark.parametrize("group", GROUPS)
    def test_cancelling_pair_is_zero(self, group):
        pres, assign = builtin(group)
        k = len(pres.generators)
        for n in range(5):
            rep = assign.rep(n)
            for g in range(k):
                for s in (1, -1):
                    [(blocks, value)] = fox_jacobian(
                        [Word([(g, s), (g, -s)])], rep)
                    assert value.is_identity()
                    assert jacobian_matrix(blocks, k, n + 1).is_zero()

    @pytest.mark.parametrize("group", GROUPS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_walk_carries_coboundaries_to_rho_minus_one(self, group, data):
        # the coboundary (rho(g) - 1) v takes the value (rho(w) - 1) v
        assign, k, n, u, v = data.draw(words_in(group))
        rep = assign.rep(n)
        eye = IntMatrix.identity(n + 1)
        B = vstack([m - eye for m in rep])
        X, Y = transport_blocks([u, u * v], rep, B)
        assert X + eye == rho_matrix(evaluate_word(u, assign.matrices), n)
        assert Y + eye == rho_matrix(
            evaluate_word(u * v, assign.matrices), n)

    def test_walk_checks_the_value_rows(self):
        pres, assign = builtin("sl2")
        rep = assign.rep(2)
        for rows in (0, 3, 7):
            with pytest.raises(ValueError):
                transport_blocks([pres.parse_word("s")], rep,
                                 IntMatrix([[1]] * rows, cols=1))
        assert transport_blocks([Word()], rep, IntMatrix([[1]] * 6)) == [
            IntMatrix.zeros(3, 1)]

    @pytest.mark.parametrize("group", ("psl2", "sl2", "gl2"))
    def test_h1_builds_rho_once_per_value(self, group, monkeypatch):
        import modh1.presentations as presentations

        built = Counter()

        def spy(m, n):
            built[m] += 1
            return rho_matrix(m, n)

        def product(a, b):
            raise AssertionError("(n + 1)-square product formed")

        monkeypatch.setattr(presentations, "rho_matrix", spy)
        pres, assign = builtin(group)
        mats = assign.matrices
        rep = assign.rep(6)
        h1(pres, rep)
        # the values h1 reads: the generators, each relator's value that is
        # not the identity (psl2's are -1), and the Fox prefixes, before a
        # letter and through an inverted one
        read = set(mats)
        for rel in pres.relators:
            prefix = Mat2.identity()
            for g, s in rel.letters:
                nxt = prefix * (mats[g] if s == 1 else mats[g].inv())
                read.add(prefix if s == 1 else nxt)
                prefix = nxt
            if not prefix.is_identity():
                read.add(prefix)
        assert built == dict.fromkeys(read, 1)
        # later reads on the same Rep build nothing twice: the Fox Jacobian
        # again, with no (n + 1)-square product, and walks that invert t,
        # which build rho_n(t)^-1 from t's 2x2 inverse, once
        with monkeypatch.context() as m:
            m.setattr(IntMatrix, "__mul__", product)
            fox_jacobian(pres.relators, rep)
        assert built == dict.fromkeys(read, 1)
        t_inv = mats[1].inv()
        Z = IntMatrix([[1, -2]] * (7 * len(mats)))
        for _ in range(2):
            transport_blocks([Word([(1, -1), (1, -1)]), Word([(0, 1)])],
                             rep, Z)
        assert built == dict.fromkeys(read | {t_inv}, 1)
        assert rep.rho(t_inv) == exact_inverse(rep[1])

    @pytest.mark.parametrize("group", ("psl2", "sl2", "pgl2", "gl2"))
    def test_relator_matrix_matches_reference(self, group):
        pres, assign = builtin(group)
        for n in range(13):
            rep = assign.rep(n)
            try:
                expected = reference_relator_matrix(pres, rep)
            except ValueError:
                with pytest.raises(ValueError):
                    relator_condition_matrix(pres, rep)
                continue
            assert relator_condition_matrix(pres, rep) == expected

    def test_relator_matrix_matches_reference_on_lift(self):
        # K x <eps>, and the free subgroup itself, whose matrix has no rows
        lift = lift_to_sl2(schreier_free_basis(23))
        keps = lift.overgroups[0]
        assert keps.presentation.name == "K x <eps>"
        k = len(lift.presentation.generators)
        for n in range(5):
            for pres, assign in ((keps.presentation, keps.assignment),
                                 (lift.presentation, lift.assignment)):
                rep = assign.rep(n)
                assert relator_condition_matrix(pres, rep) == (
                    reference_relator_matrix(pres, rep))
            R = relator_condition_matrix(lift.presentation,
                                         lift.assignment.rep(n))
            assert (R.rows, R.cols) == (0, k * (n + 1))


def test_coboundaries_satisfy_relator_conditions():
    rng = random.Random(53)
    for name, n in (("sl2", 2), ("sl2", 3), ("gl2", 2), ("psl2", 4)):
        pres, assign = builtin(name)
        rep = assign.rep(n)
        R = relator_condition_matrix(pres, rep)
        eye = IntMatrix.identity(n + 1)
        for _ in range(5):
            p = [rng.randint(-4, 4) for _ in range(n + 1)]
            stacked = []
            for m in rep:
                stacked.extend((m - eye).mulvec(p))
            assert R.mulvec(stacked) == [0] * R.rows
        assert R.cols == len(pres.generators) * (n + 1)


def test_relator_matrix_rejects_projective_odd_degree():
    pres, assign = builtin("psl2")
    try:
        relator_condition_matrix(pres, assign.rep(3))
    except ValueError:
        pass
    else:
        assert False, "degree 3 does not factor through the projective group"


def test_free_presentation_has_no_conditions():
    pres, assign = builtin("free:2")
    R = relator_condition_matrix(pres, assign.rep(2))
    assert R.rows == 0 and R.cols == 6
