"""Finite rational combinations of affine-lattice indicator functions.

A term (c, o, L) stands for c times the indicator of o + L*Z^n, where the
columns of L are a basis of a full-rank lattice in Q^n.  Sums of such terms
are closed under translation, GL_n(Q) pullback and multiplication by
level-set indicators at a prime p, which is everything the rest of the
package needs.  `parallelepiped_support` gives its points in integers, x
over one denominator and t over its term's, from integer set-up work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Sequence

from ._linalg import (
    Matrix,
    Vector,
    common_denominator,
    coset_representatives,
    det,
    from_columns,
    hnf_with_transform,
    identity,
    integer_adjugate,
    integer_det,
    integer_solutions,
    inverse,
    lattice_intersection,
    mat,
    mat_mul,
    mat_vec,
    solve,
    span_rows,
    vec,
)
from ._rational_padics import is_p_integral, pfree_part, residue, vp_int
from .errors import (
    NotAwayFromP,
    SingularMatrix,
    UnboundedEnumeration,
    ZeroDirection,
)

ENUMERATION_GUARD = 10 ** 6


@dataclass(frozen=True)
class LatticeTerm:
    coeff: Fraction
    offset: Vector
    lattice: Matrix


def _as_term(item) -> LatticeTerm:
    if isinstance(item, LatticeTerm):
        return item
    c, o, L = item
    return LatticeTerm(Fraction(c), vec(o), mat(L))


@dataclass(frozen=True)
class TestFunction:
    """Rational linear combination of indicators of cosets o + L*Z^n.

    ``away_from`` certifies that every term is p-adically trivial at the
    prime p: lattice entries p-integral, lattice determinant a p-unit, and
    the offset p-integral in lattice coordinates.
    """

    n: int
    terms: tuple[LatticeTerm, ...] = ()
    away_from: int | None = None

    __test__ = False  # not a pytest collection target

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(_as_term(t) for t in self.terms))
        for t in self.terms:
            if len(t.offset) != self.n or len(t.lattice) != self.n:
                raise ValueError("term dimension mismatch")
            if any(len(row) != self.n for row in t.lattice):
                raise ValueError("lattice matrix must be square")
            if det(t.lattice) == 0:
                raise SingularMatrix("degenerate lattice in test function term")
        if self.away_from is not None:
            p = self.away_from
            if p < 2:
                raise ValueError("certification prime must be >= 2")
            for t in self.terms:
                _certify_term(t, p)

    def evaluate(self, v: Sequence) -> Fraction:
        v = vec(v)
        if len(v) != self.n:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for t in self.terms:
            x = solve(t.lattice, tuple(a - b for a, b in zip(v, t.offset)))
            if all(c.denominator == 1 for c in x):
                total += t.coeff
        return total

    def scale(self, c) -> "TestFunction":
        c = Fraction(c)
        terms = [LatticeTerm(c * t.coeff, t.offset, t.lattice) for t in self.terms]
        return TestFunction(self.n, tuple(terms), self.away_from)

    def __neg__(self) -> "TestFunction":
        return self.scale(-1)

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if not isinstance(other, TestFunction):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch in sum")
        away = self.away_from if self.away_from == other.away_from else None
        return TestFunction(self.n, self.terms + other.terms, away)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return self + (-other)


def lattice_indicator(lattice, offset=None, away_from: int | None = None) -> TestFunction:
    L = mat(lattice)
    n = len(L)
    if offset is None:
        offset = (0,) * n
    return TestFunction(n, ((Fraction(1), vec(offset), L),), away_from)


def zn_indicator(n: int, away_from: int | None = None) -> TestFunction:
    return lattice_indicator(identity(n), away_from=away_from)


def _certify_term(t: LatticeTerm, p: int) -> None:
    for row in t.lattice:
        for entry in row:
            if not is_p_integral(entry, p):
                raise NotAwayFromP(f"lattice entry {entry} not {p}-integral")
    d = det(t.lattice)
    if d.numerator % p == 0 or d.denominator % p == 0:
        raise NotAwayFromP(f"lattice determinant {d} not a {p}-unit")
    for c in solve(t.lattice, t.offset):
        if not is_p_integral(c, p):
            raise NotAwayFromP(f"offset not {p}-integral in lattice coordinates")


# ---------------------------------------------------------------------------
# periodicity and total mass


def periodicity_lattice(f: TestFunction) -> Matrix:
    """Largest lattice under whose translations f is invariant (the
    intersection of all term lattices, each distinct one taken once).
    Identity for the empty function."""
    if not f.terms:
        return identity(f.n)
    cur, *rest = dict.fromkeys(t.lattice for t in f.terms)
    if not rest and len(f.terms) > 1:
        # one repeated lattice still comes back in lattice_intersection's
        # canonical basis, which the coset representatives are read in
        rest = [cur]
    for lat in rest:
        cur = lattice_intersection(cur, lat)
    return cur


def support_class_representatives(f: TestFunction) -> list[Vector]:
    """One point per coset of the periodicity lattice meeting some term
    support.  Deduplicated across terms."""
    Lf = periodicity_lattice(f)
    Lf_inv = inverse(Lf)
    seen: set[Vector] = set()
    total = 0
    for t in f.terms:
        h, _ = hnf_with_transform(mat_mul(inverse(t.lattice), Lf))
        total += math.prod(h[i][i] for i in range(f.n))
        if total > ENUMERATION_GUARD:
            raise UnboundedEnumeration("too many support cosets")
        for z in coset_representatives(h):
            v = tuple(o + x for o, x in zip(t.offset, mat_vec(t.lattice, z)))
            coords = mat_vec(Lf_inv, v)
            seen.add(tuple(
                a - b for a, b in zip(v, mat_vec(Lf, tuple(Fraction(math.floor(c)) for c in coords)))
            ))
    return sorted(seen)


def haar(f: TestFunction) -> Fraction:
    """Total mass of f: sum of values over one period, divided by the
    covolume of the periodicity lattice."""
    if not f.terms:
        return Fraction(0)
    Lf = periodicity_lattice(f)
    total = Fraction(0)
    for v in support_class_representatives(f):
        total += f.evaluate(v)
    return total / abs(det(Lf))


# ---------------------------------------------------------------------------
# prime-to-p line masses and the vanishing criterion


def _normalize_offset_away(a: Fraction, m: Fraction, p: int) -> Fraction:
    """Representative of a + m*Z[1/p] whose denominator is prime to p."""
    j = vp_int(a.denominator, p)
    if j:
        pj = p ** j
        r = residue(a * pj, p, j)
        t = r * pow(residue(m, p, j), -1, pj) % pj
        a = a - m * Fraction(t, pj)
        if a.denominator % p == 0:
            raise ArithmeticError("offset normalization failed")
    return a - m * math.floor(a / m)


def _intersect_affine_away(a1, m1, a2, m2, p: int):
    """Intersection of a_i + m_i*Z[1/p]; offsets have p-free denominator and
    the steps are p-free positive.  Returns (offset, step) or None."""
    q, ((A1, M1, A2, M2),) = common_denominator([(a1, m1, a2, m2)])
    g = math.gcd(M1, M2)
    delta = A2 - A1
    if delta == 0:
        y = A1
    else:
        # solvability over Z[1/p] only constrains the p-free part of delta
        j = vp_int(delta, p)
        dfree = delta // p ** j
        if dfree % g:
            return None
        u = pow(M1 // g, -1, M2 // g) if M2 // g > 1 else 0
        y = A1 + M1 * u * (dfree // g) * p ** j
    step = Fraction(abs(M1 * M2) // g, q)
    off = _normalize_offset_away(Fraction(y, q), step, p)
    return off, step


def _away_line_mass(t: LatticeTerm, v: Vector, w: Vector, p: int) -> Fraction:
    """Prime-to-p mass of {x : v + x*w in o + L*Z[1/p]^n}, normalized so the
    full line Z[1/p] has mass 1."""
    b = solve(t.lattice, tuple(a - o for a, o in zip(v, t.offset)))
    d = solve(t.lattice, w)
    cur = None
    for bi, di in zip(b, d):
        if di == 0:
            den = bi.denominator
            if den // p ** vp_int(den, p) != 1:
                return Fraction(0)
            continue
        step = pfree_part(abs(1 / di), p)
        a = _normalize_offset_away(-bi / di, step, p)
        nxt = (a, step)
        cur = nxt if cur is None else _intersect_affine_away(*cur, *nxt, p)
        if cur is None:
            return Fraction(0)
    return 1 / cur[1]


def vanishing_check(f: TestFunction, w: Sequence) -> bool:
    """Whether every line with direction w has zero prime-to-p mass.

    Lines are measured in Z[1/p]^n rather than Z^n: a line can miss the
    rational support entirely yet carry mass away from p, so projecting and
    testing over Q would accept functions it must reject.
    """
    if f.away_from is None:
        raise NotAwayFromP("vanishing check needs a certified prime")
    if not f.terms:
        return True
    w = vec(w)
    if len(w) != f.n:
        raise ValueError("dimension mismatch")
    if all(c == 0 for c in w):
        raise ZeroDirection("vanishing direction is zero")
    p = f.away_from
    # modulo Q*w and L_f*Z[1/p]^n every support class is represented by a
    # term offset, because certified term lattices all localize to the same
    # Z[1/p]-lattice
    candidates = {t.offset for t in f.terms}
    for v in candidates:
        total = Fraction(0)
        for t in f.terms:
            total += t.coeff * _away_line_mass(t, v, w, p)
        if total != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# level sets at p and tensoring


@dataclass(frozen=True)
class PLevelSet:
    """Union of cosets a + p^m Z_p^n, offsets taken mod p^m."""

    p: int
    m: int
    n: int
    offsets: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("negative level exponent")
        pm = self.p ** self.m
        canon = sorted({tuple(int(x) % pm for x in a) for a in self.offsets})
        for a in canon:
            if len(a) != self.n:
                raise ValueError("offset dimension mismatch")
        if not canon:
            raise ValueError("empty level set")
        object.__setattr__(self, "offsets", tuple(canon))


def full_level_set(p: int, n: int) -> PLevelSet:
    return PLevelSet(p, 0, n, ((0,) * n,))


def tensor_at_p(f: TestFunction, level: PLevelSet) -> TestFunction:
    """Pointwise product of f with the indicator of the level set.

    Requires f certified away from level.p; the result is a plain test
    function (the p-part is no longer trivial, so certification drops)."""
    if f.away_from is None or f.away_from != level.p:
        raise NotAwayFromP("tensor_at_p needs f certified away from the level prime")
    if f.n != level.n:
        raise ValueError("dimension mismatch")
    if level.m == 0:
        return TestFunction(f.n, f.terms, None)
    p, m = level.p, level.m
    pm = p ** m
    terms = []
    for t in f.terms:
        for a in level.offsets:
            r0 = solve(t.lattice, tuple(Fraction(ai) - oi for ai, oi in zip(a, t.offset)))
            r = vec(tuple(residue(c, p, m) for c in r0))
            off = tuple(o + x for o, x in zip(t.offset, mat_vec(t.lattice, r)))
            latt = tuple(tuple(entry * pm for entry in row) for row in t.lattice)
            terms.append((t.coeff, off, latt))
    return TestFunction(f.n, tuple(terms), None)


# ---------------------------------------------------------------------------
# group action


def gl_act_test(f: TestFunction, gamma) -> TestFunction:
    """Pullback (gamma . f)(v) = f(gamma v)."""
    gamma = mat(gamma)
    if len(gamma) != f.n:
        raise ValueError("dimension mismatch")
    ginv = inverse(gamma)
    terms = [
        (t.coeff, mat_vec(ginv, t.offset), mat_mul(ginv, t.lattice))
        for t in f.terms
    ]
    try:
        return TestFunction(f.n, tuple(terms), f.away_from)
    except NotAwayFromP:
        return TestFunction(f.n, tuple(terms), None)


# ---------------------------------------------------------------------------
# half-open parallelepiped supports


def parallelepiped_support(
    f: TestFunction, gens: Sequence[Sequence]
) -> list[tuple[tuple[int, ...], tuple[int, ...], Fraction]]:
    """Points of supp(f) inside {sum t_j g_j : 0 < t_j <= 1}, for
    generators g_j lying in the periodicity lattice of f, as triples
    (x, t, f(x)) with x = sum t_j g_j, both in integers: x as its
    lowest-terms (den, *nums), x = nums / den, and t as (q, *T), t = T / q
    with T in [1, q]^r over the denominator q of the first term reaching x.

    Each term's coset meets the parallelepiped in exactly one point per
    coset of its direction lattice modulo the generators, so the value at
    x is the sum of the coefficients of the terms whose enumeration
    reaches x.  Returned sorted by x, zero values dropped."""
    r = len(gens)
    if r == 0:
        raise ValueError("no generators")
    if any(len(g) != f.n for g in gens):
        raise ValueError("generator dimension mismatch")
    # one reduction of the integer generator columns W (over dw) for all
    # terms: rows ann vanishing exactly on the span and rows P with
    # P W = delta I; dependent generators are refused before any term
    dw, W = common_denominator(from_columns(gens))
    ann, P, delta = span_rows(W)

    # each point x is keyed by its lowest-terms integers (den, *nums),
    # x = nums / den, and holds [(q, *T), its value]
    points: dict[tuple[int, ...], list] = {}
    for t in f.terms:
        sols = _term_line_solutions(t, ann)
        if sols is None:
            continue
        e, cols = sols
        # generator coordinates tau = dw P x / delta of x0 and the
        # directions (cols / e), as integers Q0 and A over their denominator q
        rows = [[dw * sum(map(mul, prow, col)) for col in cols] for prow in P]
        red = math.gcd(delta * e, *(y for row in rows for y in row))
        q = delta * e // red
        Q0 = [row[0] // red for row in rows]
        A = [[y // red for y in row[1:]] for row in rows]
        # the generators' coordinates in the directions, the integer
        # matrix (A / q)^-1 = q adj(A) / det(A), span the cosets to visit
        dA = integer_det(A)
        h, _ = hnf_with_transform([[q * a // dA for a in row] for row in integer_adjugate(A)])
        if len(points) + math.prod(h[i][i] for i in range(r)) > ENUMERATION_GUARD:
            raise UnboundedEnumeration("too many parallelepiped points")
        # q * tau0 + A z reduced into (0, q]^r is T, and dw * q * x = W T
        wq = dw * q
        for z in coset_representatives(h):
            T = [(c + sum(map(mul, row, z)) - 1) % q + 1 for c, row in zip(Q0, A)]
            X = [sum(map(mul, row, T)) for row in W]
            g = math.gcd(wq, *X)
            key = (wq // g, *(x // g for x in X))
            entry = points.get(key)
            if entry is None:
                points[key] = [(q, *T), t.coeff]
            else:
                entry[1] += t.coeff
    # sort on integer numerators over one denominator: the order of x
    den = math.lcm(1, *(key[0] for key in points))
    return [
        (key, *points[key])
        for key in sorted(points, key=lambda k: [x * (den // k[0]) for x in k[1:]])
        if points[key][1] != 0
    ]


def _term_line_solutions(t: LatticeTerm, ann: list[tuple[int, ...]]):
    """Points of the term's coset o + L Z^n in the span cut out by the
    integer rows ann, over the common denominator e of o and L: (e, cols)
    with cols[0] / e one point and cols[1:] / e a Z-basis of the
    directions, or None when the span misses the coset."""
    e, (O, *L) = common_denominator([t.offset, *t.lattice])
    if not ann:
        return e, [O, *zip(*L)]
    # each row a of ann: a . (O + L m) = 0 in m
    BL = [[sum(map(mul, a, col)) for col in zip(*L)] for a in ann]
    sols = integer_solutions(BL, [-sum(map(mul, a, O)) for a in ann])
    if sols is None:
        return None
    m0, kern = sols
    X0 = [o + sum(map(mul, row, m0)) for o, row in zip(O, L)]
    return e, [X0, *([sum(map(mul, row, kv)) for row in L] for kv in kern)]
