"""Finitely presented groups, matrix assignments, and cocycle machinery.

Words are stored fully expanded as tuples of (generator index, sign) letters;
parsing accepts exponent shorthand like "s^-2" but expands it immediately.
Word(...) checks every letter.  Parsed words, inverses and products,
built here from checked letters, go through _word, which does not check
again; nothing outside this module calls it.
A subgroup sits in an Overgroup as a tuple of words in the overgroup's
generators, one per subgroup generator.
A 1-cocycle for a representation rho is determined by its values on the
generators, and extends to arbitrary words by Fox's transport rule

    b(x w') = b(x) + rho(x) b(w'),    b(x^-1 w') = rho(x)^-1 (b(w') - b(x)),

which transport_blocks walks right to left for a block of cocycles at
once.  Collected by generator, the terms of b(w) give the Fox Jacobian,
blocks J_g with b(w) = sum_g J_g b(g); stacked over the relators, they form
the relator condition matrix, whose integer kernel is the cocycle lattice.
pull_back_functional walks the adjoint left to right: a functional u on the
values on some words becomes the functional v = sum_i u_i J_g(w_i) on the
generator values, one row vector per word, so that a functional on
restricted cocycles is tested on the overgroup's own cocycles without them.

A Rep keeps its MatrixAssignment and one table of rho_n keyed by 2x2 value,
and rho_n is a homomorphism, so rho(x)^-1, rho of a relator and each Fox
block term, rho of a prefix, are read from that table: each value is built
once per Rep, no (n + 1)-square matrix is inverted or multiplied along a
word, and one check, _check_values, reads relators on 2x2 values: from
the Fox walk's last prefix for the relator condition matrix, so that
each relator is walked once there.
"""

from __future__ import annotations

from .linalg import AffineMap, IntMatrix, block_rows
from .polyrep import GEN_S, GEN_T, GEN_W, Mat2, rho_matrix


class Word:
    """A word in the generators of a presentation, fully expanded."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple((int(g), int(s)) for g, s in letters)
        for _, s in letters:
            if s not in (1, -1):
                raise ValueError("letter signs must be +-1")
        self.letters = letters

    @classmethod
    def parse(cls, text, generators):
        """Parse a whitespace separated word like 's t^-1 s' or 'S^2 T'.

        "1", the text format writes for the empty word, parses to it.
        """
        tokens = text.split()
        if tokens == ["1"]:
            return _word(())
        index = {name: i for i, name in enumerate(generators)}
        letters = []
        for token in tokens:
            if "^" in token:
                name, _, exp = token.partition("^")
                power = int(exp)
            else:
                name, power = token, 1
            if name not in index:
                raise ValueError("unknown generator %r" % name)
            g = index[name]
            sign = 1 if power > 0 else -1
            letters += [(g, sign)] * abs(power)
        return _word(tuple(letters))

    def format(self, generators):
        if not self.letters:
            return "1"
        return " ".join(generators[g] if s == 1 else generators[g] + "^-1"
                        for g, s in self.letters)

    def inverse(self):
        return _word(tuple((g, -s) for g, s in reversed(self.letters)))

    def __mul__(self, other):
        return _word(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "Word(%r)" % (self.letters,)


def _word(letters):
    w = object.__new__(Word)  # a tuple of checked letters, not checked again
    w.letters = letters
    return w


class Presentation:
    """Generator names plus relator words."""

    __slots__ = ("name", "generators", "relators")

    def __init__(self, name, generators, relators):
        self.name = name
        self.generators = tuple(generators)
        self.relators = tuple(relators)

    def parse_word(self, text):
        return Word.parse(text, self.generators)

    def __repr__(self):
        return "Presentation(%r, %d generators, %d relators)" % (
            self.name, len(self.generators), len(self.relators))


class MatrixAssignment:
    """Concrete 2x2 matrices for the generators of a presentation.

    With projective=True relators only need to evaluate to +-identity,
    which is how the PSL and PGL presentations are realized by integer
    matrices.  projective must be a bool, never a string or 1 read as one.
    """

    __slots__ = ("matrices", "projective")

    def __init__(self, matrices, projective=False):
        if type(projective) is not bool:
            raise TypeError("projective must be a bool, got %r"
                            % (projective,))
        self.matrices = tuple(matrices)
        self.projective = projective

    def check(self, presentation):
        eye = Mat2.identity()
        for rel in presentation.relators:
            m = evaluate_word(rel, self.matrices)
            ok = m.proj_eq(eye) if self.projective else m == eye
            if not ok:
                raise ValueError("relator %s does not evaluate to the identity"
                                 % rel.format(presentation.generators))

    def rep(self, n):
        """The degree-n representation: rho_n of each generator."""
        return Rep(self, n)


class Rep(list):
    """rho_n(g) for each generator g, kept beside the assignment and n.

    rho(A) reads rho_n of any 2x2 value A from one table, so each value is
    built once for the life of the Rep; the generators come from it too.
    """

    __slots__ = ("assignment", "n", "_table")

    def __init__(self, assignment, n):
        self.assignment = assignment
        self.n = n
        self._table = {}
        super().__init__(self.rho(m) for m in assignment.matrices)

    def rho(self, A):
        """rho_n(A) of a 2x2 value A, from the table."""
        M = self._table.get(A)
        if M is None:
            M = self._table[A] = rho_matrix(A, self.n)
        return M


class Overgroup:
    """An overgroup; words[i] spells subgroup generator i in its generators."""

    __slots__ = ("name", "presentation", "assignment", "words")

    def __init__(self, name, presentation, assignment, words):
        self.name = name
        self.presentation = presentation
        self.assignment = assignment
        self.words = tuple(words)


def evaluate_word(word, matrices):
    """Evaluate a word in a list of Mat2 values, each inverse taken once."""
    inverses = {}
    out = Mat2.identity()
    for g, s in word.letters:
        if s == -1 and g not in inverses:
            inverses[g] = matrices[g].inv()
        out = out * (matrices[g] if s == 1 else inverses[g])
    return out


def _sanov_generators(k):
    # Conjugates A^i B A^-i of B = (1 0; 2 1) by A = (1 2; 0 1) generate a
    # free group of rank k (ping-pong inside the rank 2 Sanov group).
    A = Mat2(1, 2, 0, 1)
    B = Mat2(1, 0, 2, 1)
    out = []
    left = Mat2.identity()
    for _ in range(k):
        out.append(left * B * left.inv())
        left = left * A
    return out


_BUILTIN = {
    "psl2": ("S T", ("S S", "T T T"), (GEN_S, GEN_T), True),
    "sl2": ("s t", ("s s s s", "s s t^-3"), (GEN_S, GEN_T), False),
    "pgl2": ("S T W", ("S S", "T T T", "W W", "S W S W", "T W T W"),
             (GEN_S, GEN_T, GEN_W), True),
    "gl2": ("s t w", ("s s s s", "s s t^-3", "w w", "w s w s", "w t w t"),
            (GEN_S, GEN_T, GEN_W), False),
}


def builtin(name):
    """A named presentation with its standard matrix assignment.

    Known names: psl2, sl2, pgl2, gl2, and free:k for k >= 1.  The first
    four are the amalgam presentations of the (projective) modular and
    extended modular groups on the standard order 4, order 6 and swap
    generators.
    """
    key = name.strip().lower()
    if key in _BUILTIN:
        gens, rels, matrices, projective = _BUILTIN[key]
        gens = tuple(gens.split())
        return (Presentation(key, gens, [Word.parse(r, gens) for r in rels]),
                MatrixAssignment(matrices, projective=projective))
    if key.startswith("free:"):
        k = int(key.split(":", 1)[1])
        if k < 1:
            raise ValueError("free rank must be at least 1")
        gens = tuple("g%d" % (i + 1) for i in range(k))
        p = Presentation(key, gens, ())
        return p, MatrixAssignment(_sanov_generators(k))
    raise ValueError("unknown group %r" % name)


def fox_jacobian(words, rep):
    """The Fox Jacobian of each word, evaluated in rep, and its 2x2 value.

    Returns one pair (blocks, value) per word: blocks maps each generator
    g that occurs in w to the matrix J_g with b(w) = sum_g J_g b(g) for
    every cocycle b, and value is w's 2x2 value, the walk's last prefix.
    b(g) enters with rho of the prefix before it, b(g^-1) with minus rho
    of the prefix through it.  rho_n is a homomorphism, so each term is
    rep.rho of the prefix's 2x2 value: no (n + 1)-square product is formed.
    Each 2x2 inverse is taken once; a block grows by one + or - per letter.
    """
    matrices = rep.assignment.matrices
    inverses = {}
    out = []
    for word in words:
        blocks = {}
        prefix = Mat2.identity()
        for g, s in word.letters:
            if s == -1 and g not in inverses:
                inverses[g] = matrices[g].inv()
            nxt = prefix * (matrices[g] if s == 1 else inverses[g])
            term = rep.rho(prefix if s == 1 else nxt)
            if g in blocks:
                blocks[g] = blocks[g] + term if s == 1 else blocks[g] - term
            else:
                blocks[g] = term if s == 1 else -term
            prefix = nxt
        out.append((blocks, prefix))
    return out


def transport_blocks(words, rep, Z):
    """Values on each word of the cocycles in the columns of Z.

    Z stacks d = n + 1 rows of values per generator; the result has one
    d-row block X(w) per word.  Walking right to left, a letter acts by
    X -> M X + C: M, C = rho(x), Z_x for x and rho(x)^-1, -rho(x)^-1 Z_x
    for x^-1, one sparse product.  rho(x)^-1 is rep.rho of x's 2x2
    inverse, read only for generators that occur inverted.
    """
    d = rep.n + 1
    if Z.rows != len(rep) * d:
        raise ValueError("generator values need %d rows" % (len(rep) * d))
    steps = {}
    for g, s in {letter for w in words for letter in w.letters}:
        M, C = rep[g], IntMatrix(Z.data[g * d:(g + 1) * d], cols=Z.cols)
        if s == -1:
            M = rep.rho(rep.assignment.matrices[g].inv())
            C = -(M * C)
        steps[g, s] = AffineMap(M, C)
    out = []
    for word in words:
        X = IntMatrix.zeros(d, Z.cols)
        for letter in reversed(word.letters):
            X = steps[letter](X)
        out.append(X)
    return out


def pull_back_functional(words, rep, u):
    """The functional v on generator values with v.Z = u.X for every Z.

    X = vstack(transport_blocks(words, rep, Z)), so this is the adjoint of
    transport_blocks: u holds d = n + 1 entries per word, v d entries per
    generator.  By Fox calculus X(w) = sum_g J_g(w) Z_g, so v_g is the sum
    of u_i J_g(w_i) over the words.  Each word whose block u_i is nonzero
    is walked left to right as one row vector r = u_i rho(prefix): a
    letter x adds r to v_x, then steps r -> r rho(x); a letter x^-1 steps
    r -> r rho(x)^-1, then subtracts r from v_x.  A letter costs one
    vector-matrix product, over the nonzero entries of rho, and rho(x)^-1
    is rep.rho of x's 2x2 inverse, read only for generators that occur
    inverted.
    """
    d = rep.n + 1
    if len(u) != len(words) * d:
        raise ValueError("a functional on %d words needs %d entries"
                         % (len(words), len(words) * d))
    steps = {}  # (g, s) -> the nonzero entries of each row of rho(g)^s

    def times(r, g, s):
        # the row vector r times rho(g)^s
        if (g, s) not in steps:
            M = rep[g] if s == 1 else rep.rho(rep.assignment.matrices[g].inv())
            steps[g, s] = [[(j, y) for j, y in enumerate(row) if y]
                           for row in M.data]
        out = [0] * d
        for x, row in zip(r, steps[g, s]):
            if x:
                for j, y in row:
                    out[j] += x * y
        return out

    v = [0] * (len(rep) * d)
    for i, word in enumerate(words):
        r = u[i * d:(i + 1) * d]
        if not any(r):
            continue
        last = len(word) - 1
        for k, (g, s) in enumerate(word.letters):
            if s == -1:
                r = times(r, g, s)
            for j, x in enumerate(r, g * d):
                v[j] += s * x
            if s == 1 and k < last:  # no prefix past the word's end
                r = times(r, g, s)
    return v


def _check_relators(presentation, rep):
    # ValueError unless rho_n kills each relator
    _check_values(presentation, rep,
                  [evaluate_word(rel, rep.assignment.matrices)
                   for rel in presentation.relators])


def _check_values(presentation, rep, values):
    # ValueError unless rho_n kills each relator, given its 2x2 value:
    # rep.rho of the value, read only when it is not the identity
    eye = IntMatrix.identity(rep.n + 1)
    for rel, value in zip(presentation.relators, values):
        if not value.is_identity() and rep.rho(value) != eye:
            raise ValueError("representation does not satisfy relator %s"
                             % rel.format(presentation.generators))


def relator_condition_matrix(presentation, rep):
    """The linear conditions a cocycle's generator values must satisfy.

    Block column g of relator row r is the Fox Jacobian block J_g of r,
    laid by block_rows into rows zeroed once; the matrix has shape
    (#relators * d) x (#generators * d) and its integer kernel is Z^1.
    The Fox walk ends at each relator's 2x2 value, so the relators are
    checked from it and not evaluated again.

    Raises ValueError when the representation does not kill some relator,
    e.g. for an odd degree action through a projective presentation.
    """
    jacobians = fox_jacobian(presentation.relators, rep)
    _check_values(presentation, rep, [value for _, value in jacobians])
    return block_rows([blocks for blocks, _ in jacobians],
                      len(presentation.generators), rep.n + 1)
