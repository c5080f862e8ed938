"""Exact linear algebra over the integers.

Matrices are dense, row-major lists of lists of Python ints, so everything
is arbitrary precision for free.  The column-vector convention is used
throughout the package: a matrix acts on coefficient vectors from the left.

The one normal form here is Smith's: U * A * V = S with U, V unimodular
and S diagonal, nonnegative, each diagonal entry dividing the next.
smith_normal_form(A), its one constructor, returns a SmithLattice: U, V
and the diagonal of S (S itself is never built), through which it reads
the lattice spanned by the columns of A.

Smith and kernel_basis rest on one in-place row echelon routine: a
forward sweep that clears below each pivot with unimodular steps, then a
second sweep that makes each pivot positive and reduces the rows above
it.  Transforms ride along as appended columns: reducing the rows of
[A | I] leaves U in the right-hand block, and the Smith form alternates
passes on [S | U] and [S^T | V^T].  Each pass leaves positive pivots in
its leading rows, so the nonzero entries of the final diagonal are
already a positive prefix.  cokernel_invariants reads only the
diagonal: after one row Hermite pass on A's bare rows it splits off each
pivot 1 with its row and column, and the Smith reduction of the core
left carries neither U nor V.  kernel_basis stops after a row pass and
a column pass's forward sweep.  No matrix is ever inverted here: the one
inverse the package needs, rho_n(g)^-1, is rho_n of g's 2x2 inverse.

rank, row_echelon and kills_kernel(A, v, 0) read only A's rational row
space, so they eliminate over Q instead, with exact integers: one
fraction-free pass per column (Bareiss, Math. Comp. 22, 1968) sets each
row below the pivot p to a*row - c*pivot row, with a = p/g, c = x/g for
its entry x and g = gcd(p, x), and divides a scaled row by its content,
the gcd of its entries (von zur Gathen and Gerhard, Modern Computer
Algebra, 6.2).  It runs none of the Euclid rounds that make the
Hermite sweep's entries grow: on the relator condition matrix of PSL2(Z)
at n = 150 the largest entry has 4030 bits there and 103 bits here.  It
visits the columns lightest first, by the bit lengths of their entries,
so the sparse unit columns of rho(S) and rho(W) are pivoted before the
binomial columns of rho(T), which most dependent rows no longer reach;
its rows are in echelon form under that column order.
kills_kernel(A, v, 0) asks whether v kills A's kernel, that is, lies in
A's rational row space: it reduces v the same way against those rows,
in pivot order, and builds no kernel basis; with a modulus m != 0 it
pairs v with kernel_basis(A).  _primitive_kernel reads one primitive
integer vector of A's rational kernel per free column off the same
rows, by fraction-free back-substitution in reverse pivot order.

Pivots are chosen by minimal nonzero absolute value, which keeps
intermediate entries small in practice.

Products skip zero entries: row i of A*B is built as the sum of
a_ik * (row k of B) over the nonzero a_ik and the nonzero entries of row
k (Gustavson, ACM TOMS 4, 1978).  The matrices the package multiplies
are mostly zeros: rho_n(S) and rho_n(W) are signed permutation matrices,
rho_n(T) is about half zeros, and the relator condition matrix has whole
zero blocks, which block_rows leaves as the zeros of rows built once.
A product with a signed permutation matrix then costs O(d^2), not d^3.
An AffineMap X -> M*X + C lists M's nonzero entries once, for maps
applied many times, as along the letters of a word.

The public constructor copies its rows and checks every entry.  Matrices
whose rows linalg has just built itself go through IntMatrix._of, which
does neither; nothing outside this module calls it.
"""

from __future__ import annotations

from math import gcd, lcm


def xgcd(a, b):
    """Extended gcd.  Return (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


class IntMatrix:
    """An immutable-by-convention integer matrix.

    Zero-column and zero-row matrices are allowed; they show up naturally as
    empty kernels and empty generator lists.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = [list(row) for row in data]
        if data:
            if cols is not None and cols != len(data[0]):
                raise ValueError("cols=%r but the rows have %d entries"
                                 % (cols, len(data[0])))
            cols = len(data[0])
        elif cols is None:
            cols = 0
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("integer entries required")
        self.rows = len(data)
        self.cols = cols
        self.data = data

    @classmethod
    def _of(cls, data, cols):
        """Wrap rows just built in this module: no copy, no entry check.

        The caller owns data, which must be a fresh list of fresh lists of
        ints, each of length cols, shared with no other matrix.
        """
        m = object.__new__(cls)
        m.rows = len(data)
        m.cols = cols
        m.data = data
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls._of([[1 if i == j else 0 for j in range(n)]
                        for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns, rows=None):
        """Build a matrix whose j-th column is columns[j]."""
        columns = [list(c) for c in columns]
        if columns:
            rows = len(columns[0])
        elif rows is None:
            raise ValueError("row count required for an empty column list")
        return cls([[c[i] for c in columns] for i in range(rows)], cols=len(columns))

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "IntMatrix(%r)" % (self.data,)

    def __neg__(self):
        return IntMatrix._of([[-x for x in row] for row in self.data],
                             self.cols)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix._of([[x + y for x, y in zip(r, s)]
                              for r, s in zip(self.data, other.data)],
                             self.cols)

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix._of([[x - y for x, y in zip(r, s)]
                              for r, s in zip(self.data, other.data)],
                             self.cols)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._of([[x * other for x in row]
                                  for row in self.data], self.cols)
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        n = other.cols
        # row i of A*B is the sum of a_ik * (row k of B) over nonzero a_ik
        brows = [[(j, y) for j, y in enumerate(row) if y]
                 for row in other.data]
        out = []
        for arow in self.data:
            acc = [0] * n
            for x, brow in zip(arow, brows):
                if x:
                    for j, y in brow:
                        acc[j] += x * y
            out.append(acc)
        return IntMatrix._of(out, n)

    def mulvec(self, v):
        """Matrix times column vector, returned as a list."""
        v = list(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(x * y for x, y in zip(row, v) if x) for row in self.data]

    def transpose(self):
        if self.rows == 0:
            return IntMatrix._of([[] for _ in range(self.cols)], 0)
        return IntMatrix._of([list(r) for r in zip(*self.data)], self.rows)

    def column(self, j):
        return [row[j] for row in self.data]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)


class AffineMap:
    """The map X -> M*X + C on integer matrices, prepared for reuse.

    The nonzero entries of each row of M are listed once, so each
    application costs one multiply-add per nonzero m_ik and column of X:
    row i of the result is row i of C plus m_ik * (row k of X).
    """

    __slots__ = ("cols", "nonzero", "offset")

    def __init__(self, M, C):
        if M.rows != C.rows:
            raise ValueError("shape mismatch: %d rows and %d rows"
                             % (M.rows, C.rows))
        self.cols = M.cols
        self.nonzero = [[(k, x) for k, x in enumerate(row) if x]
                        for row in M.data]
        self.offset = C

    def __call__(self, X):
        if X.rows != self.cols or X.cols != self.offset.cols:
            raise ValueError("shape mismatch: %dx%d block for an affine map "
                             "on %dx%d" % (X.rows, X.cols, self.cols,
                                           self.offset.cols))
        out = []
        for row, acc in zip(self.nonzero, self.offset.data):
            acc = list(acc)
            for k, x in row:
                for j, y in enumerate(X.data[k]):
                    acc[j] += x * y
            out.append(acc)
        return IntMatrix._of(out, self.offset.cols)


def vstack(mats):
    mats = list(mats)
    cols = mats[0].cols
    data = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("column mismatch in vstack")
        data.extend(list(row) for row in m.data)
    return IntMatrix._of(data, cols)


def hstack(mats):
    mats = list(mats)
    rows = mats[0].rows
    data = [[] for _ in range(rows)]
    for m in mats:
        if m.rows != rows:
            raise ValueError("row mismatch in hstack")
        for i in range(rows):
            data[i].extend(m.data[i])
    return IntMatrix._of(data, sum(m.cols for m in mats))


def block_rows(blocks, k, d):
    """Rows of k blocks, each d x d: block (r, g) is blocks[r][g], or zero
    where that dict has no key g.  A block not d x d or a key outside
    0..k-1 raises ValueError."""
    data = [[0] * (k * d) for _ in range(len(blocks) * d)]
    for r, row in enumerate(blocks):
        for g, M in row.items():
            if M.rows != d or M.cols != d or not 0 <= g < k:
                raise ValueError("bad block %r: %dx%d" % (g, M.rows, M.cols))
            for acc, src in zip(data[r * d:(r + 1) * d], M.data):
                acc[g * d:(g + 1) * d] = src
    return IntMatrix._of(data, k * d)


class SmithLattice:
    """A Smith form U*A*V = S, read as the lattice spanned by A's columns.

    Built by smith_normal_form(A) alone.  A vector v lies in the lattice
    exactly when each entry of U*v is divisible by the matching diagonal
    entry of S (entries past the rank must vanish).  That one test gives
    coordinates, a refuting functional, and the order of v modulo the
    lattice.  The form cokernel_invariants reduces inside this module
    carries no transform (U and V are None) and is never handed out.
    """

    __slots__ = ("A", "U", "V", "_diag")

    def diagonal(self):
        return self._diag[:self.A.cols]

    def rank(self):
        return sum(1 for d in self._diag if d)

    def coords(self, v):
        """Integer x with A*x = v, or None when v is outside the lattice."""
        y = [0] * self.V.rows
        for i, (c, d) in enumerate(zip(self.U.mulvec(v), self._diag)):
            if d:
                q, r = divmod(c, d)
                if r:
                    return None
                y[i] = q
            elif c:
                return None
        return self.V.mulvec(y)

    def refute(self, v):
        """A non-membership voucher for v, or None when v is in the lattice.

        Returns (u, m): a row of U with u.A = 0 mod m but u.v != 0 mod m,
        where m = 0 means exact vanishing.
        """
        for i, (c, d) in enumerate(zip(self.U.mulvec(v), self._diag)):
            if c % d if d else c:
                return list(self.U.data[i]), d
        return None

    def order(self, v):
        """Order of v modulo the lattice; None means infinite."""
        m = 1
        for c, d in zip(self.U.mulvec(v), self._diag):
            if d:
                m = lcm(m, d // gcd(d, c))
            elif c:
                return None
        return m

    def coordinate_lattice(self, B):
        """The matrix of the coordinates of B's columns in A's columns.

        Its columns span the coordinate lattice of B in A's lattice.  A's
        columns must be independent and B's columns must lie in the
        lattice; otherwise ValueError.
        """
        if self.rank() != self.A.cols:
            raise ValueError("columns of A are not independent")
        coords = [self.coords(col) for col in B.columns()]
        if None in coords:
            raise ValueError("columns of B outside the lattice of A")
        return IntMatrix.from_columns(coords, rows=self.A.cols)


def _is_diagonal(rows, n):
    return all(not x or i == j
               for i, row in enumerate(rows) for j, x in enumerate(row[:n]))


def _echelon(rows, n):
    """Bring the first n columns of rows to row Hermite form, in place.

    Entries past column n receive the same row operations, so reducing
    [A | I] leaves the unimodular transform in the appended block.  Pivots
    are chosen from the first n columns alone.  Returns the pivot columns,
    as _forward does.

    The forward sweep never reads a row again once it holds a pivot, so
    making each pivot positive and reducing the rows above it can wait for
    a second sweep, in pivot order, with the same row operations as when
    each followed its own pivot.
    """
    pivots = _forward(rows, n)
    for r, j in enumerate(pivots):
        if rows[r][j] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r][j]
        pivot = [(k, x) for k, x in enumerate(rows[r]) if x]
        for i in range(r):
            row = rows[i]
            q = row[j] // p  # floor division leaves a residue in [0, p)
            if q:
                for k, x in pivot:
                    row[k] -= q * x
    return pivots


def _forward(rows, n):
    """Clear below each pivot of the first n columns of rows, in place.

    Returns the pivot columns: row r holds the pivot in column
    pivots[r], and the rows past the last pivot vanish in the first n
    columns.
    """
    m = len(rows)
    pivots = []
    for j in range(n):
        r = len(pivots)
        if r >= m:
            break
        # gcd out the column below row r
        while True:
            best, bi = 0, -1
            for i in range(r, m):
                x = abs(rows[i][j])
                if x and (not best or x < best):
                    best, bi = x, i
            if not best:
                break
            rows[r], rows[bi] = rows[bi], rows[r]
            p = rows[r][j]
            pivot = [(k, x) for k, x in enumerate(rows[r]) if x]
            done = True
            for i in range(r + 1, m):
                row = rows[i]
                if row[j]:
                    q = row[j] // p
                    for k, x in pivot:
                        row[k] -= q * x
                    if row[j]:
                        done = False
            if done:
                break
        if rows[r][j]:
            pivots.append(j)
    return pivots


def _rational_forward(rows, n):
    """Clear below each pivot of the first n columns of rows over Q, in place.

    Returns the pivot columns: row r holds the pivot in column pivots[r],
    every later row is 0 there, and the rows past the last pivot vanish
    in the first n columns.  Every step is an invertible rational row
    operation rather than a unimodular one: the rows keep A's rational
    row space and kernel, not its row lattice.

    Columns are visited lightest first, by the sum of the bit lengths of
    their entries, taken once (ties in index order), so pivot columns
    need not rise.  The pivot is the first entry of least absolute value in
    its column.  Each row below with entry x there becomes
    a*row - c*pivot row, for g = gcd(p, x), a = p/g > 0 and c = x/g, so
    one pass clears the column; a row scaled by a != 1 is divided by its
    content.
    """
    m = len(rows)
    if not m:
        return []
    weight = [sum(map(int.bit_length, filter(None, col)))
              for col in zip(*rows)]
    pivots = []
    for j in sorted(range(n), key=weight.__getitem__):
        r = len(pivots)
        if r >= m:
            break
        hits = [i for i in range(r, m) if rows[i][j]]
        if not hits:
            continue
        bi = min(hits, key=lambda i: abs(rows[i][j]))
        rows[r], rows[bi] = rows[bi], rows[r]
        pivots.append(j)
        if len(hits) == 1:
            continue
        p = rows[r][j]
        pivot = [(k, x) for k, x in enumerate(rows[r]) if x]
        for i in hits:
            if i == bi:
                continue
            if i == r:  # the swap moved row r to bi
                i = bi
            row = rows[i]
            x = row[j]
            g = gcd(p, x)
            a, c = p // g, x // g
            if a < 0:
                a, c = -a, -c
            if a != 1:
                row = [a * y for y in row]
            for k, y in pivot:
                row[k] -= c * y
            if a != 1:
                g = gcd(*row)
                if g > 1:
                    row = [y // g for y in row]
                rows[i] = row
    return pivots


def smith_normal_form(A):
    """Smith normal form with transforms.

    Returns a SmithLattice with U*A*V = S, both transforms unimodular, S
    diagonal with nonnegative entries in a divisibility chain.
    """
    return _smith(A, True)


def _smith(A, transforms):
    """The one Smith reduction of A.

    With transforms it reduces the rows of [A | I], whose right-hand block
    becomes U, and the columns of [A^T | I], whose right-hand block
    becomes V^T; otherwise A's bare rows and columns, for readers of the
    diagonal alone, and U and V are None.  Pivots are chosen from A's
    entries only, so both give the same diagonal.

    Reduction alternates row Hermite passes on [S | U] and on [S^T | V^T].
    Each pass keeps entries reduced modulo the pivots, which is what keeps
    coefficient growth in check; single-pivot elimination blows up already
    on modest kernel-basis matrices.  The diagonal the last pass leaves is
    already a prefix of positive pivots; it is then repaired into a chain
    with exact 2x2 gcd/lcm transforms.
    """
    m, n = A.rows, A.cols
    su = [row + [int(i == k) for k in range(m)] if transforms else list(row)
          for i, row in enumerate(A.data)]
    vt = IntMatrix.identity(n).data if transforms else [[] for _ in range(n)]
    for _ in range(4 + 2 * max(m, n)):
        _echelon(su, n)
        if _is_diagonal(su, n):
            break
        st = [[row[j] for row in su] + vt[j] for j in range(n)]
        _echelon(st, m)
        vt = [row[m:] for row in st]
        su = [[row[i] for row in st] + su[i][n:] for i in range(m)]
        if _is_diagonal(su, n):
            break
    else:
        raise RuntimeError("Smith reduction failed to converge")
    # The last pass left S in row or column echelon form, so its nonzero
    # diagonal entries are positive pivots and a prefix of the diagonal.
    s = [su[i][i] for i in range(min(m, n))]
    u = [row[n:] for row in su]
    r = sum(1 for x in s if x)

    # Repair divisibility with two-sided 2x2 transforms:
    # P [a 0; 0 b] Q = [g 0; 0 ab/g] for P = [x y; -b/g a/g],
    # Q = [1 -y*b/g; 1 x*a/g] where x*a + y*b = g.  Bubbling adjacent
    # pairs terminates because each fix strictly shrinks an earlier slot.
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = s[i], s[i + 1]
            if b % a == 0:
                continue
            changed = True
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            s[i] = g
            s[i + 1] = ag * b
            ui, uj = u[i], u[i + 1]
            u[i] = [x * p + y * q for p, q in zip(ui, uj)]
            u[i + 1] = [-bg * p + ag * q for p, q in zip(ui, uj)]
            yb, xa = y * bg, x * ag
            vi, vj = vt[i], vt[i + 1]
            vt[i] = [p + q for p, q in zip(vi, vj)]
            vt[i + 1] = [-yb * p + xa * q for p, q in zip(vi, vj)]
    snf = object.__new__(SmithLattice)
    snf.A = A
    snf.U = IntMatrix._of(u, m) if transforms else None
    snf.V = (IntMatrix._of([[row[j] for row in vt] for j in range(n)], n)
             if transforms else None)
    snf._diag = s + [0] * (m - len(s))  # one entry per row of U*v
    return snf


def rank(A):
    """Rank of A over the rationals (equal to the rank over Z): the row
    count of row_echelon(A)."""
    return row_echelon(A).rows


def row_echelon(A):
    """Integer rows spanning A's rational row space, in echelon form under
    the column order the sweep picks.

    Each row has a pivot column where every later row is 0, but pivot
    columns need not rise.  Their count is rank(A), and
    (row_echelon(A) * B).is_zero() exactly when (A * B).is_zero().  They
    need not span A's row lattice: they come from A by invertible
    rational row operations, not unimodular ones.  The rows above each
    pivot are left unreduced.
    """
    rows = [list(row) for row in A.data]
    return IntMatrix._of(rows[:len(_rational_forward(rows, A.cols))], A.cols)


def kernel_basis(A):
    """A basis of the integer kernel of A, as the columns of the result.

    The basis spans the full lattice ker(A) in Z^cols, not a finite-index
    sublattice, because it comes from a unimodular column transform.
    Columns are sign-normalized (first nonzero entry positive).

    Two passes of the Smith reduction suffice, and give exactly the columns
    of its V past the rank r: a row pass brings A's bare rows to Hermite
    form H, and a column pass on the rows of [H^T | I] leaves the kernel in
    the transform rows past r.  Later passes never change or move those
    rows: their S block is zero, so they are never a pivot and never
    reduced; pivot swaps stay below the rank; and the divisibility repair
    touches only indices below the rank, as does the column pass's own
    back-reduction, so that pass ends at its forward sweep.  H's zero rows
    past r are left out of H^T, as zero columns are never a pivot.
    """
    n = A.cols
    rows = [list(row) for row in A.data]
    r = len(_echelon(rows, n))
    st = [[row[j] for row in rows[:r]] + [int(i == j) for i in range(n)]
          for j in range(n)]
    _forward(st, r)
    cols = []
    for row in st[r:]:
        c = row[r:]
        for x in c:
            if x:
                if x < 0:
                    c = [-y for y in c]
                break
        cols.append(c)
    return IntMatrix.from_columns(cols, rows=n)


def _primitive_kernel(A):
    """One primitive integer vector of ker(A) per free column, as lists.

    The free columns are those _rational_forward leaves without a pivot,
    taken in index order.  Free column f's vector is 0 at the other free
    columns and positive at f, and its pivot entries are solved from the
    echelon rows by fraction-free back-substitution in reverse pivot
    order: row r meets only f and the pivots past r, so its pivot entry
    x_j solves p*x_j + s = 0, with s summed over the vector's nonzero
    entries, not the row's, and for g = gcd(p, s) the vector is scaled
    by |p|/g, x_j set to -sign(p)*s/g, and a scaled vector divided by its
    content.  The vectors span A's rational kernel, not always its integer
    kernel; each one holds at most rank(A) + 1 nonzero entries.
    """
    n = A.cols
    rows = [list(row) for row in A.data]
    pivots = _rational_forward(rows, n)
    steps = list(zip(reversed(pivots), reversed(rows[:len(pivots)])))
    pivot_set = set(pivots)
    out = []
    for f in range(n):
        if f in pivot_set:
            continue
        x = {f: 1}
        for j, row in steps:
            s = sum(row[k] * y for k, y in x.items())
            if not s:
                continue
            p = row[j]
            g = gcd(p, s)
            a, c = p // g, s // g
            if a < 0:
                a, c = -a, -c
            if a != 1:
                x = {k: a * y for k, y in x.items()}
            x[j] = -c
            if a != 1:
                g = gcd(*x.values())
                if g > 1:
                    x = {k: y // g for k, y in x.items()}
        v = [0] * n
        for k, y in x.items():
            v[k] = y
        out.append(v)
    return out


def kills_kernel(A, v, m):
    """Whether v.x = 0 (mod m) for every integer x with A*x = 0.

    m = 0 asks for v.x = 0 exactly.  That holds exactly when v lies in
    the rational row space of A, the orthogonal complement of its kernel:
    v is reduced fraction-free against the rows row_echelon(A) returns,
    in pivot order, along each row's nonzero entries, is divided by its
    content after each step that scaled it, and must reduce to zero.  No
    kernel basis is built.
    For m != 0 the test is kernel_basis(A)^T v = 0 (mod m): that basis
    spans the whole integer kernel, so its columns are enough.
    """
    v = list(v)
    if len(v) != A.cols:
        raise ValueError("vector length mismatch")
    if m:
        return all(x % m == 0 for x in kernel_basis(A).transpose().mulvec(v))
    rows = [list(row) for row in A.data]
    for row, j in zip(rows, _rational_forward(rows, A.cols)):
        x = v[j]
        if not x:
            continue
        g = gcd(row[j], x)
        a, c = row[j] // g, x // g
        if a < 0:
            a, c = -a, -c
        if a != 1:
            v = [a * y for y in v]
        for k, y in enumerate(row):
            if y:
                v[k] -= c * y
        if a != 1:
            g = gcd(*v)
            if g > 1:
                v = [y // g for y in v]
    return not any(v)


def solve_integer(A, b):
    """One integer solution x of A*x = b, or None when none exists."""
    return smith_normal_form(A).coords(b)


class AbelianInvariants:
    """A finitely generated abelian group, as free rank plus torsion chain.

    torsion is a tuple (d_1, ..., d_k) with 1 < d_1 | d_2 | ... | d_k, so the
    group is Z^free_rank + Z/d_1 + ... + Z/d_k.

    >>> str(AbelianInvariants(2, (2, 6)))
    'Z^2 + Z/2 + Z/6'
    >>> str(AbelianInvariants(0, ()))
    '0'
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        torsion = tuple(int(d) for d in torsion)
        for d in torsion:
            if d < 2:
                raise ValueError("torsion entries must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion entries must form a divisibility chain")
        self.free_rank = int(free_rank)
        self.torsion = torsion

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def two_primary_valuation(self):
        """k such that the 2-primary part of the torsion has order 2^k."""
        k = 0
        for d in self.torsion:
            while d % 2 == 0:
                k += 1
                d //= 2
        return k

    def __eq__(self, other):
        return (isinstance(other, AbelianInvariants)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __repr__(self):
        return "AbelianInvariants(%d, %r)" % (self.free_rank, self.torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def cokernel_invariants(A):
    """Invariants of Z^rows / A Z^cols, off a Smith form with no transform.

    One row Hermite pass comes first.  A pivot 1 at (r, j) then has
    column j equal to e_r, since the rows above it are reduced modulo 1
    and the rows below vanish there, so column steps by column j clear
    row r and touch nothing else: each such pivot splits off a Z/1 with
    its row and column.  Only the core left, the other pivot rows on the
    other columns, goes through the Smith reduction.
    """
    rows = [list(row) for row in A.data]
    pivots = _echelon(rows, A.cols)
    units = {j for row, j in zip(rows, pivots) if row[j] == 1}
    keep = [k for k in range(A.cols) if k not in units]
    core = [[row[k] for k in keep] for row, j in zip(rows, pivots)
            if j not in units]
    diag = [d for d in _smith(IntMatrix._of(core, len(keep)), False)
            .diagonal() if d]
    return AbelianInvariants(A.rows - len(units) - len(diag),
                             [d for d in diag if d > 1])


def quotient_invariants(K, B):
    """Invariants of (lattice spanned by columns of K) / (by columns of B).

    K must have Z-linearly independent columns.  Every column of B must lie in
    the lattice spanned by K; a column outside it raises ValueError, since the
    quotient would not be defined.
    """
    return cokernel_invariants(smith_normal_form(K).coordinate_lattice(B))
