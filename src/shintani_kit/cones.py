"""Open simplicial cones, perturbed-sign cocycle values, and explicit
cone-combination extraction.

The cocycle of a tuple (alpha_1..alpha_n) with basis (w_1..w_n) is read
off determinants of the matrix whose column j is
alpha_j (w_1 + eps_j w_2 + ... + eps_j^(n-1) w_n), where the perturbation
scalars eps_1 >> eps_2 >> ... > 0 are formal.  A polynomial in them has
the sign of its coefficient on the most significant monomial (monomials
compared coordinate-reversed lexicographically, smallest key dominates),
which pins 1 - eps_1 > 0 and eps_1 - eps_2 > 0.

Two routes compute the cocycle and share no perturbation code:

* hill_eval uses that the determinant is multilinear in its columns: the
  coefficient of prod_j eps_j^(e_j) is det[alpha_1 w_(e_1+1), ...,
  alpha_n w_(e_n+1)].  Scaling each alpha_j w_i, and v, by a positive
  integer keeps every sign, so the columns are primitive integer vectors.
  With column i replaced by v that coefficient is linear in v: it is the
  face row r_(i,e), row i of the adjugate of [alpha_j w_(e_j+1)], dotted
  with v.  Each tuple builds its face rows once, lazily in significance
  order, so a point costs one integer dot product per face and exponent
  until one is nonzero.
* hill_cone_function holds the perturbed columns as TruncSeries in the
  eps variables and splits the fan along the linear functionals their
  cofactors carry; hill_eval checks the result pointwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import permutations, product
from math import gcd
from operator import mul

from ._linalg import (
    Matrix,
    Vector,
    columns,
    common_denominator,
    det,
    from_columns,
    integer_det,
    mat,
    mat_vec,
    span_rows,
    vec,
)
from .errors import (
    DegenerateTuple,
    GuardTripped,
    ShintaniKitError,
    ZeroVector,
)
from .exact_core import TruncSeries

# sample points on which hill_cone_function checks its extraction against
# hill_eval before returning it
HILL_VERIFY_SAMPLES = 40

# ---------------------------------------------------------------------------
# formal perturbation polynomials (TruncSeries in eps_1..eps_n)


def _sig_key(exp: tuple[int, ...]) -> tuple[int, ...]:
    # eps_n outranks eps_{n-1} in smallness, so compare from the right
    return tuple(reversed(exp))


def leading_sign(p: TruncSeries) -> int:
    """Sign of a perturbation polynomial: the coefficient sign at the
    dominating monomial."""
    if not p.coeffs:
        return 0
    return 1 if p.coeffs[min(p.coeffs, key=_sig_key)] > 0 else -1


# ---------------------------------------------------------------------------
# cones and signed cone combinations


def primitive_direction(g) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector."""
    _, (ints,) = common_denominator([vec(g)])
    g0 = gcd(*ints)
    if not g0:
        raise ZeroVector("zero vector has no direction")
    return tuple(x // g0 for x in ints)


@dataclass(frozen=True)
class OpenCone:
    """Simplicial cone: positive combinations of the generators, which
    must be linearly independent, the coefficients of those whose index is
    in `closed` (not all of them) also zero, as in Shintani's domains."""

    generators: tuple[Vector, ...]
    closed: tuple[int, ...] = ()

    def __post_init__(self):
        gens = tuple(vec(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ShintaniKitError("cone needs at least one generator")
        object.__setattr__(self, "closed", tuple(sorted(set(self.closed))))
        if not set(self.closed) < set(range(len(gens))):
            raise ShintaniKitError("closed generators must be some, not all, of the cone's")
        # independence of the integer generator columns W by det W, or by
        # det(W^T W) when r < n; the membership rows wait for contains
        W = common_denominator(from_columns(gens))[1]
        cols = list(zip(*W))
        gram = W if len(cols) == len(W) else [[sum(map(mul, a, b)) for b in cols] for a in cols]
        if not integer_det(gram):
            raise ShintaniKitError("cone generators must be independent")
        object.__setattr__(self, "_integer_gens", W)

    @cached_property
    def _span(self) -> tuple[list, list, list]:
        """ann of `span_rows`, vanishing exactly on the span, and its P v, a
        positive multiple of v's coordinates, split into open and closed rows."""
        (ann, P, _), c = span_rows(self._integer_gens), self.closed
        return ann, [p for j, p in enumerate(P) if j not in c], [P[j] for j in c]

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def ambient(self) -> int:
        return len(self.generators[0])

    def contains(self, v) -> bool:
        """Whether v is a combination of the generators, strictly positive
        in the open ones and nonnegative in the closed ones."""
        _, (v,) = common_denominator([vec(v)])
        return self._contains_integers(v)

    def _contains_integers(self, v) -> bool:
        """contains for the integers of a point over its denominator, or of
        any positive multiple of it: only signs are read."""
        if len(v) != self.ambient:
            raise ValueError("point dimension mismatch")
        ann, P, closed = self._span
        return not any(sum(map(mul, r, v)) for r in ann) and all(
            sum(map(mul, r, v)) > 0 for r in P) and (
            not closed or all(sum(map(mul, r, v)) >= 0 for r in closed))


@dataclass
class ConeFunction:
    """Finite integer combination of cone indicators plus a constant.

    evaluate(v) = constant + sum(weight * [v in cone]) for v != 0.
    """

    terms: list[tuple[Fraction, OpenCone]] = field(default_factory=list)
    constant: Fraction = Fraction(0)

    def evaluate(self, v) -> Fraction:
        # the point's integers over its common denominator, once for all terms
        _, (v,) = common_denominator([vec(v)])
        if not any(v):
            raise ZeroVector("cone functions live on V minus the origin")
        acc = Fraction(self.constant)
        for w, cone in self.terms:
            if cone._contains_integers(v):
                acc += w
        return acc

    def scale(self, factor) -> "ConeFunction":
        factor = Fraction(factor)
        return ConeFunction(
            [(factor * w, c) for w, c in self.terms], factor * self.constant
        )

    def __add__(self, other: "ConeFunction") -> "ConeFunction":
        return ConeFunction(
            list(self.terms) + list(other.terms), self.constant + other.constant
        )


# ---------------------------------------------------------------------------
# the perturbed cocycle


@dataclass(frozen=True)
class GLTuple:
    """Tuple of invertible rational matrices with a marked basis."""

    matrices: tuple[Matrix, ...]
    basis: Matrix | None = None

    def __post_init__(self):
        mats = tuple(mat(m) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        n = len(mats[0])
        for m in mats:
            if det(m) == 0:
                raise ShintaniKitError("tuple entries must be invertible")
        if self.basis is None:
            object.__setattr__(self, "basis", mat(
                [[1 if i == j else 0 for j in range(n)] for i in range(n)]))
        else:
            b = mat(self.basis)
            if det(b) == 0:
                raise ShintaniKitError("basis must be invertible")
            object.__setattr__(self, "basis", b)

    @property
    def ambient(self) -> int:
        return len(self.matrices[0])

    @cached_property
    def _integer_columns(self) -> list[list[tuple[int, ...]]]:
        """Each alpha_j w_i as a primitive integer vector, from the integer
        numerators of alpha_j and of the basis; the positive factors leave
        every determinant sign as it was."""
        w_cols = list(zip(*common_denominator(self.basis)[1]))
        out = []
        for alpha in self.matrices:
            rows = common_denominator(alpha)[1]
            col = []
            for w in w_cols:
                u = [sum(map(mul, row, w)) for row in rows]
                g = gcd(*u)
                col.append(tuple(x // g for x in u))
            out.append(col)
        return out

    @cached_property
    def _sign(self) -> int:
        """Sign of the perturbed determinant (0 if it vanishes identically).
        The coefficient of eps^e is det[alpha_j w_(e_j+1)]; determinants are
        taken in significance order and the first nonzero one decides."""
        cols = self._integer_columns
        for e in _exponents(len(cols), None):
            d = integer_det([col[k] for col, k in zip(cols, e)])
            if d:
                return 1 if d > 0 else -1
        return 0

    @cached_property
    def _face_rows(self) -> list[list[tuple[int, ...]]]:
        """For each column i, the face rows r_(i,e) built so far, in the
        order of _exponents(n, i)."""
        return [[] for _ in self.matrices]


@cache
def _exponents(n: int, i: int | None) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples e in {0..n-1}^n, with e_i = 0 unless i is None, most
    significant first."""
    return tuple(sorted(
        (e for e in product(range(n), repeat=n) if i is None or e[i] == 0),
        key=_sig_key,
    ))


def _face_row(cols, i: int, e: tuple[int, ...]) -> tuple[int, ...]:
    """Row i of the adjugate of the matrix with columns cols[j][e_j]: its
    dot product with an integer v is the determinant with column i
    replaced by v."""
    rest = [col[k] for j, (col, k) in enumerate(zip(cols, e)) if j != i]
    return tuple(
        (-1) ** (r + i) * integer_det([u[:r] + u[r + 1:] for u in rest])
        for r in range(len(cols))
    )


def _first_columns(t: GLTuple, message: str) -> list[Vector]:
    """The vectors alpha_j w_1; DegenerateTuple(message) when they are
    linearly dependent."""
    if integer_det([col[0] for col in t._integer_columns]) == 0:
        raise DegenerateTuple(message)
    w1 = columns(t.basis)[0]
    return [mat_vec(alpha, w1) for alpha in t.matrices]


def _int_if_integral(x: Fraction) -> int | Fraction:
    return x.numerator if x.denominator == 1 else x


def _perturbed_columns(t: GLTuple) -> list[list[TruncSeries]]:
    """Columns alpha_j * b_j with b_j = w_1 + eps_j w_2 + ... + eps_j^(n-1) w_n:
    the eps_j^i coefficient of row r is (alpha_j w_(i+1))_r, an int where
    the entries that make it are integers."""
    n = t.ambient
    # Caps (n-1,)*n never truncate: every entry of column j is a polynomial
    # in eps_j alone of degree below n, and a determinant or minor takes one
    # entry per column, so no product raises any eps_j past n-1.
    caps = (n - 1,) * n
    w_cols = [[_int_if_integral(x) for x in w] for w in columns(t.basis)]
    cols = []
    for j, alpha in enumerate(t.matrices):
        rows = [[_int_if_integral(a) for a in row] for row in alpha]
        cols.append([
            TruncSeries(caps, {
                tuple(i if k == j else 0 for k in range(n)): sum(map(mul, row, w))
                for i, w in enumerate(w_cols)
            })
            for row in rows
        ])
    return cols


def _eps_det(cols: list[list[TruncSeries]]) -> TruncSeries:
    n = len(cols)
    caps = cols[0][0].caps  # minors keep the full set of perturbation vars
    acc = TruncSeries(caps)
    for perm in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = cols[0][perm[0]].scale(-1 if inv % 2 else 1)
        for j in range(1, n):
            term = term * cols[j][perm[j]]
        acc = acc + term
    return acc


def hill_eval(t: GLTuple, v) -> int:
    """Value at v of the perturbed cocycle for the tuple t.

    Returns sigma = sign(det M) if v lies in the perturbed open cone, else
    0: v is inside when, for each i, the determinant with column i replaced
    by v has sign sigma.  Each sign is the first nonzero coefficient of the
    multilinear expansion (see the module docstring), the face row r_(i,e)
    dotted with the integers of v; a point off every face stops at e = 0.
    The columns, sigma and the face rows are computed once per tuple.
    """
    v = vec(v)
    if all(x == 0 for x in v):
        raise ZeroVector("evaluation point must be nonzero")
    if len(t.matrices) != t.ambient:
        raise ShintaniKitError("tuple length must equal the ambient dimension")
    if len(v) != t.ambient:
        raise ValueError("point dimension mismatch")
    sigma = t._sign
    if sigma == 0:
        raise GuardTripped("perturbed determinant vanished")
    _, (v,) = common_denominator([v])
    n, cols = t.ambient, t._integer_columns
    for i, rows in enumerate(t._face_rows):
        for k, e in enumerate(_exponents(n, i)):
            if k == len(rows):
                rows.append(_face_row(cols, i, e))
            d = sum(map(mul, rows[k], v))
            if d:
                break
        # d = 0 when every coefficient vanishes
        if d * sigma <= 0:
            return 0
    return sigma


# --- explicit extraction ----------------------------------------------------


def _functionals(cols: list[list[TruncSeries]], i: int) -> list[Vector]:
    """Significance-ordered linear functionals carrying det(M with column i
    replaced by a v-column) = sum over monomials of eps^r * phi_r(v)."""
    n = len(cols)
    # cofactor of entry (row, i): signed det of the minor
    cofactors = []
    for row in range(n):
        minor_cols = []
        for j in range(n):
            if j == i:
                continue
            minor_cols.append([cols[j][k] for k in range(n) if k != row])
        if minor_cols:
            minor = _eps_det(minor_cols)
        else:
            minor = TruncSeries.constant(cols[0][0].caps, Fraction(1))
        sign = -1 if (row + i) % 2 else 1
        cofactors.append(minor.scale(sign))
    monomials = sorted({e for c in cofactors for e in c.coeffs}, key=_sig_key)
    funcs = []
    for e in monomials:
        funcs.append(vec([c.coeffs.get(e, Fraction(0)) for c in cofactors]))
    return funcs


def _split_pieces(gens: list[Vector], vals: list[Fraction]):
    """Split an open simplicial cone along ker(phi) when phi changes sign.

    Returns (positive pieces, kernel pieces, negative pieces), each a list
    of generator lists describing disjoint open simplicial cones that
    together cover the input cone.
    """
    pos = [j for j, x in enumerate(vals) if x > 0]
    neg = [j for j, x in enumerate(vals) if x < 0]
    zero = [j for j, x in enumerate(vals) if x == 0]
    d = len(gens)

    def edge_point(jp: int, jn: int) -> Vector:
        # phi-kernel point strictly inside the edge (g_jp, g_jn)
        return vec([
            vals[jp] * bn - vals[jn] * bp
            for bp, bn in zip(gens[jp], gens[jn])
        ])

    if d == 2:
        a, b = pos[0], neg[0]
        h = edge_point(a, b)
        return [[gens[a], h]], [[h]], [[h, gens[b]]]
    if d == 3 and len(zero) == 1:
        a, b, z = pos[0], neg[0], zero[0]
        h = edge_point(a, b)
        return (
            [[gens[a], h, gens[z]]],
            [[h, gens[z]]],
            [[h, gens[b], gens[z]]],
        )
    if d == 3 and len(pos) == 2:
        a, b = pos
        c = neg[0]
        h1 = edge_point(a, c)
        h2 = edge_point(b, c)
        plus = [
            [gens[a], gens[b], h2],
            [gens[a], h2],
            [gens[a], h2, h1],
        ]
        return plus, [[h1, h2]], [[gens[c], h1, h2]]
    if d == 3 and len(neg) == 2:
        a = pos[0]
        b, c = neg
        h1 = edge_point(a, b)
        h2 = edge_point(a, c)
        minus = [
            [gens[b], gens[c], h2],
            [gens[b], h2],
            [gens[b], h2, h1],
        ]
        return [[gens[a], h1, h2]], [[h1, h2]], minus
    raise ShintaniKitError(
        "cone splitting implemented for ambient dimension <= 3 only"
    )


def hill_cone_function(t: GLTuple) -> ConeFunction:
    """Explicit open-cone combination equal to the perturbed cocycle value.

    Requires the vectors alpha_i * w_1 to be linearly independent
    (DegenerateTuple otherwise).  The result is checked pointwise against
    hill_eval on sampled rational points before being returned.
    """
    n = t.ambient
    if len(t.matrices) != n:
        raise ShintaniKitError("tuple length must equal the ambient dimension")
    u = _first_columns(t, "alpha_i * w_1 must be independent")
    cols = _perturbed_columns(t)
    sigma = leading_sign(_eps_det(cols))
    if sigma == 0:
        raise GuardTripped("perturbed determinant vanished")
    func_lists = [_functionals(cols, i) for i in range(n)]

    accepted: list[list[Vector]] = []

    def walk(gens: list[Vector], i: int, pos: int):
        if i == n:
            accepted.append(gens)
            return
        funcs = func_lists[i]
        while pos < len(funcs):
            phi = funcs[pos]
            vals = [sum(p * g[k] for k, p in enumerate(phi)) for g in gens]
            has_pos = any(x > 0 for x in vals)
            has_neg = any(x < 0 for x in vals)
            if not has_pos and not has_neg:
                pos += 1
                continue
            if has_pos and has_neg:
                plus, kernel, minus = _split_pieces(gens, vals)
                # pieces on the wrong side never satisfy membership
                for piece in plus if sigma > 0 else minus:
                    walk(piece, i + 1, 0)
                for piece in kernel:
                    walk(piece, i, pos + 1)
                return
            s = 1 if has_pos else -1
            if s == sigma:
                walk(gens, i + 1, 0)
            return
        # functional list exhausted: D_i vanishes identically on this piece
        return

    # enumerate the faces of the simplicial fan on u_1..u_n
    for mask in range(1, 1 << n):
        gens = [u[j] for j in range(n) if mask & (1 << j)]
        walk(gens, 0, 0)

    result = ConeFunction(
        [(Fraction(sigma), OpenCone(tuple(g))) for g in accepted], Fraction(0)
    )

    # verification pass: the extraction must agree with direct evaluation
    rng = random.Random(20240801)
    samples: list[Vector] = []
    for gens in accepted[:HILL_VERIFY_SAMPLES]:
        samples.append(vec([sum(col) for col in zip(*gens)]))
    while len(samples) < HILL_VERIFY_SAMPLES:
        pt = [Fraction(rng.randrange(-12, 13), rng.randrange(1, 4)) for _ in range(n)]
        if any(pt):
            samples.append(vec(pt))
    for v in samples:
        if result.evaluate(v) != hill_eval(t, v):
            raise GuardTripped("cone extraction disagrees with direct evaluation")
    return result


def cocycle_defect(mats, samples) -> list[Fraction]:
    """Alternating facet sum of cocycle values at each sample point.

    mats is a list of n+1 invertible matrices; the i-th facet omits the
    i-th entry.  The returned list should be constant in v, which callers
    assert; each facet must itself be non-degenerate.
    """
    mats = [mat(m) for m in mats]
    n = len(mats[0])
    if len(mats) != n + 1:
        raise ShintaniKitError("need exactly n+1 matrices")
    facets = []
    for i in range(len(mats)):
        rest = tuple(m for j, m in enumerate(mats) if j != i)
        t = GLTuple(rest)
        _first_columns(t, "facet tuple is degenerate")
        facets.append(t)
    out = []
    for v in samples:
        acc = Fraction(0)
        for i, t in enumerate(facets):
            acc += (-1) ** i * hill_eval(t, v)
        out.append(acc)
    return out


def gl_act_cone(gamma, kappa: ConeFunction) -> ConeFunction:
    """Push a cone combination forward through an invertible matrix.

    (gamma . kappa)(v) = sign(det gamma) * kappa(gamma^{-1} v).
    """
    gamma = mat(gamma)
    d = det(gamma)
    if d == 0:
        raise ShintaniKitError("matrix must be invertible")
    sign = 1 if d > 0 else -1
    terms = []
    for w, cone in kappa.terms:
        gens = tuple(mat_vec(gamma, g) for g in cone.generators)
        terms.append((sign * w, OpenCone(gens, cone.closed)))
    return ConeFunction(terms, sign * kappa.constant)
