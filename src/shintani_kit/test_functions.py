"""Finite rational combinations of affine-lattice indicator functions.

A term (c, o, L) stands for c times the indicator of o + L*Z^n, where the
columns of L are a basis of a full-rank lattice in Q^n.  Sums of such terms
are closed under translation, GL_n(Q) pullback and multiplication by
level-set indicators at a prime p, which is everything the rest of the
package needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ._linalg import (
    Matrix,
    Vector,
    common_denominator,
    coset_representatives,
    det,
    from_columns,
    hnf_with_transform,
    integer_kernel,
    inverse,
    lattice_intersection,
    mat,
    mat_mul,
    mat_vec,
    solve,
    solve_integer,
    span_annihilator,
    span_coordinate_rows,
    transpose,
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
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    return lattice_indicator(eye, away_from=away_from)


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
    intersection of all term lattices).  Identity for the empty function."""
    if not f.terms:
        return tuple(tuple(Fraction(int(i == j)) for j in range(f.n)) for i in range(f.n))
    cur = f.terms[0].lattice
    for t in f.terms[1:]:
        cur = lattice_intersection(cur, t.lattice)
    return cur


def support_class_representatives(f: TestFunction) -> list[Vector]:
    """One point per coset of the periodicity lattice meeting some term
    support.  Deduplicated across terms."""
    Lf = periodicity_lattice(f)
    Lf_inv = inverse(Lf)
    seen: dict[Vector, Vector] = {}
    total = 0
    for t in f.terms:
        h, _ = hnf_with_transform(mat_mul(inverse(t.lattice), Lf))
        count = 1
        for i in range(f.n):
            count *= h[i][i]
        total += abs(count)
        if total > ENUMERATION_GUARD:
            raise UnboundedEnumeration("too many support cosets")
        for z in coset_representatives(h):
            v = tuple(
                o + x for o, x in zip(t.offset, mat_vec(t.lattice, vec(z)))
            )
            coords = mat_vec(Lf_inv, v)
            canon = tuple(
                a - b for a, b in zip(v, mat_vec(Lf, tuple(Fraction(math.floor(c)) for c in coords)))
            )
            if canon not in seen:
                seen[canon] = canon
    return sorted(seen.values())


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
) -> list[tuple[Vector, Vector, Fraction]]:
    """Points of supp(f) inside {sum t_j g_j : 0 < t_j <= 1}, for
    generators g_j lying in the periodicity lattice of f, as triples
    (x, t, f(x)) with x = sum t_j g_j.

    Each term's coset meets the parallelepiped in exactly one point per
    coset of its direction lattice modulo the generators, so the value at
    x is the sum of the coefficients of the terms whose enumeration
    reaches x.  Returned sorted by x, zero values dropped."""
    gens = [vec(g) for g in gens]
    r = len(gens)
    if r == 0:
        raise ValueError("no generators")
    if any(len(g) != f.n for g in gens):
        raise ValueError("generator dimension mismatch")
    # one reduction of the generators for every term: coordinate rows C, and
    # rows ann that vanish exactly on the span; dependent generators are
    # refused here, before any term is looked at
    ann = span_annihilator(gens)
    C = span_coordinate_rows(gens, ann)

    dw, Wd = common_denominator(from_columns(gens))
    # each point x is keyed by its lowest-terms integers (den, *nums),
    # x = nums / den, and holds [its q * t, q, its value]
    points: dict[tuple[int, ...], list] = {}
    for t in f.terms:
        sols = _term_line_solutions(t, ann, f.n)
        if sols is None:
            continue
        x0, dirs = sols
        # x0 and the directions lie in the span, where C reads off their
        # generator coordinates
        tau0 = mat_vec(C, x0)
        A = from_columns([mat_vec(C, d) for d in dirs])
        h, _ = hnf_with_transform(inverse(A))
        count = 1
        for i in range(r):
            count *= abs(h[i][i])
        if len(points) + count > ENUMERATION_GUARD:
            raise UnboundedEnumeration("too many parallelepiped points")
        # integer arithmetic over common denominators: q * (tau0 + A z) is
        # an integer vector, reduced into (0, q]^r it is q * t, and
        # dw * q * x = (dw * W) (q * t)
        q, (Q0, *Aq) = common_denominator([tau0, *A])
        wq = dw * q
        for z in coset_representatives(h):
            T = [
                (c + sum(a * zi for a, zi in zip(row, z)) - 1) % q + 1
                for c, row in zip(Q0, Aq)
            ]
            X = [sum(w * tj for w, tj in zip(row, T)) for row in Wd]
            g = math.gcd(wq, *X)
            key = (wq // g, *(x // g for x in X))
            entry = points.get(key)
            if entry is None:
                points[key] = [T, q, t.coeff]
            else:
                entry[2] += t.coeff
    # sort on integer numerators over one denominator: the order of x
    den = math.lcm(1, *(key[0] for key in points))
    out = []
    for key in sorted(points, key=lambda k: [x * (den // k[0]) for x in k[1:]]):
        T, q, value = points[key]
        if value != 0:
            x = tuple(Fraction(xi, key[0]) for xi in key[1:])
            out.append((x, tuple(Fraction(tj, q) for tj in T), value))
    return out


def _term_line_solutions(t: LatticeTerm, ann: list[Vector], n: int):
    """Solve for supp-term points in the span cut out by the rows ann: a
    particular point and Z-basis directions, or None when the span misses
    the coset."""
    if not ann:
        m0 = vec((0,) * n)
        kern = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    else:
        # each row of ann: row . (o + L m) = 0 in m, as integers (rhs, *coefficients)
        _, rows = common_denominator([
            (-sum(ri * oi for ri, oi in zip(row, t.offset)), *mat_vec(transpose(t.lattice), row))
            for row in ann
        ])
        BL_int = tuple(tuple(row[1:]) for row in rows)
        rhs_int = tuple(row[0] for row in rows)
        m0_sol = solve_integer(BL_int, rhs_int)
        if m0_sol is None:
            return None
        m0 = vec(m0_sol)
        kern = integer_kernel(BL_int)
    x0 = tuple(o + x for o, x in zip(t.offset, mat_vec(t.lattice, m0)))
    dirs = [mat_vec(t.lattice, vec(k)) for k in kern]
    return x0, dirs
