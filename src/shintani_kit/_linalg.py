"""Exact linear algebra over the rationals and over the integers.

Matrices are tuples of row-tuples of Fractions (or ints where noted); vec
and mat keep each Fraction entry and send anything else through
Fraction(x).  The sizes are tiny (n <= 4), so clarity beats asymptotics.
Over the rationals there is one Gauss-Jordan routine, ``_rref``; solve,
inverse, rank and rational_kernel are thin wrappers around it.  Over the
integers, integer_det is fraction-free (Bareiss) elimination, det
scales its rows to integers and calls it, and integer_adjugate takes its
cofactors; the lattice routines go through hnf_with_transform, once per
question: span_rows answers whether a point lies in the span of
independent generators and with what coordinates (the question of cone
membership and of parallelepiped points alike), and integer_solutions
gives a particular solution and the kernel of an integer system.
common_denominator alone builds integers over one common denominator,
the layout of every hot loop here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import SingularMatrix, ZeroVector

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def mat(rows) -> Matrix:
    """Normalize a nested iterable into a Fraction matrix, each row by vec."""
    return tuple(vec(row) for row in rows)


def vec(entries) -> Vector:
    """A Fraction vector: Fraction entries are kept, the rest go through Fraction(x)."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )

def mat_vec(a: Matrix, v) -> Vector:
    v = vec(v)
    assert len(a[0]) == len(v)
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def columns(a: Matrix) -> list[Vector]:
    return [tuple(row[j] for row in a) for j in range(len(a[0]))]


def from_columns(cols) -> Matrix:
    cols = [vec(c) for c in cols]
    return tuple(tuple(c[i] for c in cols) for i in range(len(cols[0])))


def common_denominator(rows) -> tuple[int, list[list[int]]]:
    """The lcm d of the denominators of every entry (1 when there is
    none), and the rows, of ints or Fractions, as integer numerators over
    d in the same shape."""
    d = lcm(1, *(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def det(a: Matrix) -> Fraction:
    """Determinant: the rows scaled to integers, integer_det, divided back."""
    d, rows = common_denominator(mat(a))
    return Fraction(integer_det(rows), d ** len(rows))


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination in place, the one elimination loop here.

    Pivots are taken in the first ncols columns only; any further columns
    are an augmented block that rides along.  On return row i holds pivot
    i (normalized to 1, cleared above and below) and the remaining rows
    are zero in the first ncols columns.  Returns the pivot columns.
    """
    n = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == n:
            break
        pivot = next((i for i in range(r, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        prow = rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            factor = rows[i][col]
            if i != r and factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], prow)]
        pivots.append(col)
    return pivots


def solve(a: Matrix, b) -> Vector:
    """Solve a*x = b for square invertible a."""
    n = len(a)
    aug = [list(vec(row)) + [x] for row, x in zip(a, vec(b))]
    if len(_rref(aug, n)) < n:
        raise SingularMatrix("singular system")
    return tuple(row[n] for row in aug)


def inverse(a: Matrix) -> Matrix:
    """Inverse of a square matrix by one reduction of [a | I]."""
    n = len(a)
    aug = [list(vec(row)) + list(e) for row, e in zip(a, identity(n))]
    if len(_rref(aug, n)) < n:
        raise SingularMatrix("singular system")
    return tuple(tuple(row[n:]) for row in aug)


def rank(a: Matrix) -> int:
    rows = [list(vec(r)) for r in a]
    return len(_rref(rows, len(rows[0]) if rows else 0))


def rational_kernel(a: Matrix) -> list[Vector]:
    """Basis of the right kernel of a (rows may be dependent)."""
    rows = [list(vec(r)) for r in a]
    m = len(rows[0]) if rows else 0
    pivots = _rref(rows, m)
    basis = []
    for fcol in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            v[pcol] = -rows[i][fcol]
        basis.append(tuple(v))
    return basis


# --- integer-lattice routines -------------------------------------------

IntMatrix = tuple[tuple[int, ...], ...]


def _as_int_matrix(a) -> IntMatrix:
    out = []
    for row in a:
        new = []
        for x in row:
            if type(x) is not int:
                f = Fraction(x)
                if f.denominator != 1:
                    raise ValueError("integer matrix expected")
                x = f.numerator
            new.append(x)
        out.append(tuple(new))
    return tuple(out)


def integer_det(a) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so all entries stay integers."""
    rows = [list(r) for r in a]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pk = rows[k]
        pivot = pk[k]
        for ri in rows[k + 1:]:
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pivot - lead * pk[j]) // prev
        prev = pivot
    return sign * rows[-1][-1] if n else 1


def integer_adjugate(a) -> IntMatrix:
    """Adjugate of a square integer matrix by cofactors: a adj(a) = det(a) I."""
    n = len(a)
    return tuple(
        tuple((-1) ** (i + j) * integer_det([row[:i] + row[i + 1:] for row in a[:j] + a[j + 1:]])
              for j in range(n))
        for i in range(n)
    )


def hnf_with_transform(a) -> tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form of an integer matrix.

    Returns (h, u) with a*u = h, u unimodular, h lower triangular with
    nonnegative pivots and entries right of a pivot zero.  Works for any
    shape; zero columns of h are pushed to the right.
    """
    a = _as_int_matrix(a)
    n = len(a)
    m = len(a[0]) if n else 0
    cols = [[a[i][j] for i in range(n)] for j in range(m)]
    ucols = [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    row = 0
    pivot_col = 0
    while row < n and pivot_col < m:
        # clear row `row` across columns pivot_col..m-1 by column gcd steps
        j = pivot_col
        while True:
            nz = [t for t in range(pivot_col, m) if cols[t][row] != 0]
            if not nz:
                break
            t0 = min(nz, key=lambda t: abs(cols[t][row]))
            if t0 != pivot_col:
                cols[pivot_col], cols[t0] = cols[t0], cols[pivot_col]
                ucols[pivot_col], ucols[t0] = ucols[t0], ucols[pivot_col]
            done = True
            for t in range(pivot_col + 1, m):
                if cols[t][row]:
                    q = cols[t][row] // cols[pivot_col][row]
                    cols[t] = [x - q * y for x, y in zip(cols[t], cols[pivot_col])]
                    ucols[t] = [x - q * y for x, y in zip(ucols[t], ucols[pivot_col])]
                    if cols[t][row]:
                        done = False
            if done:
                break
        if cols[pivot_col][row] != 0:
            if cols[pivot_col][row] < 0:
                cols[pivot_col] = [-x for x in cols[pivot_col]]
                ucols[pivot_col] = [-x for x in ucols[pivot_col]]
            # reduce earlier columns against this pivot
            piv = cols[pivot_col][row]
            for t in range(pivot_col):
                q = cols[t][row] // piv
                if q:
                    cols[t] = [x - q * y for x, y in zip(cols[t], cols[pivot_col])]
                    ucols[t] = [x - q * y for x, y in zip(ucols[t], ucols[pivot_col])]
            pivot_col += 1
        row += 1
    h = tuple(tuple(cols[j][i] for j in range(m)) for i in range(n))
    u = tuple(tuple(ucols[j][i] for j in range(m)) for i in range(m))
    return h, u


def span_rows(W) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
    """From one column HNF W^T U = (H | 0) of the integer n x r matrix W
    of generator columns: the last n - r columns of U, a Z-basis of the
    integer rows orthogonal to W (they vanish exactly on the span), and
    rows P = adj(H)^T U_r^T with P W = delta I, delta = det H > 0.
    Dependent generators raise SingularMatrix."""
    n, r = len(W), len(W[0])
    h, u = hnf_with_transform(tuple(zip(*W)))
    if r > n or not all(h[i][i] for i in range(r)):
        raise SingularMatrix("generators are linearly dependent")
    adj = integer_adjugate([row[:r] for row in h])
    P = [[sum(map(mul, col, urow)) for urow in u] for col in zip(*adj)]
    ann = [tuple(row[j] for row in u) for j in range(r, n)]
    return ann, P, prod(h[i][i] for i in range(r))


def integer_solutions(a, b) -> tuple[tuple[int, ...], list[tuple[int, ...]]] | None:
    """From one column HNF a*u = h of the integer matrix a: (x0, kernel)
    with x0 one integer solution of a*x = b (b integer) and kernel a basis
    of {x in Z^m : a*x = 0}, or None when a*x = b has no integer solution."""
    h, u = hnf_with_transform(a)
    m = len(u)
    # forward-substitute through the staircase columns of h; the columns
    # past them are zero, and the same columns of u span the kernel
    y = [0] * m
    resid = list(b)
    col = 0
    for row in range(len(h)):
        if col < m and h[row][col] != 0:
            q, rem = divmod(resid[row], h[row][col])
            if rem:
                return None
            y[col] = q
            for i, hrow in enumerate(h):
                resid[i] -= q * hrow[col]
            col += 1
        elif resid[row] != 0:
            # zero row in the staircase with a nonzero target
            return None
    x0 = tuple(sum(map(mul, urow, y)) for urow in u)
    return x0, [tuple(urow[j] for urow in u) for j in range(col, m)]


def lattice_intersection(a, b) -> IntMatrix:
    """Basis matrix (columns) of the intersection of two full-rank lattices.

    a and b are square rational matrices whose columns span the lattices.
    """
    a = mat(a)
    n = len(a)
    s, rows = common_denominator(a + mat(b))
    sa, sb = rows[:n], rows[n:]
    stacked = tuple(tuple(sa[i] + [-x for x in sb[i]]) for i in range(n))
    _, kern = integer_solutions(stacked, [0] * n)
    if len(kern) != n:
        raise SingularMatrix("lattices are not full rank")
    cols = [[Fraction(sum(c * x for c, x in zip(row, k)), s) for row in sa] for k in kern]
    # HNF-normalize so callers get a canonical triangular basis
    den, icols = common_denominator(cols)
    h, _ = hnf_with_transform(tuple(zip(*icols)))
    return tuple(tuple(Fraction(h[i][j], den) for j in range(n))
                 for i in range(n))


def coset_representatives(h: IntMatrix) -> list[tuple[int, ...]]:
    """Representatives of Z^n modulo the lattice spanned by h's columns.

    h must be a lower-triangular integer matrix with positive diagonal
    (a column HNF).  Processing rows top-down, each representative is the
    canonical digit vector in the box prod [0, h_ii).
    """
    n = len(h)
    reps: list[tuple[int, ...]] = [()]
    for i in range(n):
        d = h[i][i]
        if d <= 0:
            raise SingularMatrix("HNF with nonpositive pivot")
        reps = [r + (k,) for r in reps for k in range(d)]
    # lower-triangular reduction puts every vector in the box prod [0, h_ii),
    # so the box itself is a complete, canonical set of representatives
    return reps


def minimal_multiplier(g, basis: Matrix) -> Fraction:
    """Smallest positive rational a with a*g inside the column lattice: over
    one denominator, basis = L/c and g = v/c, a = |det L| / gcd(adj(L) v)."""
    _, (v, *L) = common_denominator([vec(g), *mat(basis)])
    det_L = integer_det(L)
    if not det_L:
        raise SingularMatrix("singular system")
    g0 = gcd(*(sum(map(mul, row, v)) for row in integer_adjugate(L)))
    if g0 == 0:
        raise ZeroVector("zero vector has no minimal multiplier")
    return Fraction(abs(det_L), g0)
