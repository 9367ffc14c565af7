"""Reference routines used only by the test suite.

Each one answers a question the package itself never asks on any path
(membership, traces, translates, congruences), so it lives here rather
than in ``src/``.  ``span_coordinates`` solves for span coordinates by its
own reduction of [G | v], independently of ``_linalg.span_rows``, and
``theta_moment`` takes moments by the theta operator, independently of the
Stirling-number sum in ``padic_measures.moment``.
"""

from fractions import Fraction

from shintani_kit._linalg import Vector, _rref, vec
from shintani_kit._rational_padics import is_p_integral, residue
from shintani_kit.errors import NotAwayFromP, SingularMatrix
from shintani_kit.exact_core import TruncSeries
from shintani_kit.padic_measures import PadicScalar
from shintani_kit.real_quadratic_fields import IdealHNF, RealQuadraticField
from shintani_kit.test_functions import LatticeTerm, PLevelSet, TestFunction


def span_coordinates(gens, v) -> Vector | None:
    """Coordinates c with sum(c_j * gens_j) = v, or None when v lies off
    the span.  One reduction of [G | v] with G the generator columns;
    dependent generators raise SingularMatrix."""
    r = len(gens)
    v = vec(v)
    aug = [[Fraction(g[i]) for g in gens] + [v[i]] for i in range(len(v))]
    if len(_rref(aug, r)) < r:
        raise SingularMatrix("generators are linearly dependent")
    if any(row[r] for row in aug[r:]):
        return None
    return tuple(row[r] for row in aug[:r])


def ideal_contains(ideal: IdealHNF, v) -> bool:
    """Whether v = (x, y), meaning x + y*omega, lies in the ideal."""
    y = Fraction(v[1])
    t = y / ideal.d
    if t.denominator != 1:
        return False
    x = Fraction(v[0]) - t * ideal.b
    return (x / ideal.a).denominator == 1


def field_trace(field: RealQuadraticField, u):
    """Trace of u = (x, y), meaning x + y*omega."""
    x, y = u
    return 2 * x + field.omega_trace * y


def translate(f: TestFunction, u) -> TestFunction:
    """The function v -> f(v - u); the certification is dropped when the
    shifted offsets are no longer p-integral."""
    u = vec(u)
    terms = [
        LatticeTerm(t.coeff, tuple(a + b for a, b in zip(t.offset, u)), t.lattice)
        for t in f.terms
    ]
    try:
        return TestFunction(f.n, tuple(terms), f.away_from)
    except NotAwayFromP:
        return TestFunction(f.n, tuple(terms), None)


def congruent_to(value: PadicScalar, x) -> bool:
    """Whether x matches the p-adic value at its known precision."""
    x = Fraction(x)
    if x.denominator % value.p == 0:
        return False
    return (x.numerator * pow(x.denominator, -1, value.modulus) - value.residue) % value.modulus == 0


def level_set_contains(level: PLevelSet, v) -> bool:
    """Whether v lies in the union of cosets a + p^m Z_p^n."""
    v = vec(v)
    if len(v) != level.n:
        raise ValueError("dimension mismatch")
    if any(not is_p_integral(c, level.p) for c in v):
        return False
    if level.m == 0:
        return True
    res = tuple(residue(c, level.p, level.m) for c in v)
    return res in set(level.offsets)


def _theta(series: TruncSeries, j: int) -> TruncSeries:
    """(1+S_j) d/dS_j: coefficient beta picks up beta_j * old[beta] plus
    (beta_j + 1) * old[beta + e_j]."""
    nxt: dict = {}
    for e, c in series.coeffs.items():
        if not e[j]:
            continue
        w = e[j] * c
        nxt[e] = nxt.get(e, Fraction(0)) + w
        down = tuple(x - (1 if jj == j else 0) for jj, x in enumerate(e))
        nxt[down] = nxt.get(down, Fraction(0)) + w
    return TruncSeries(series.caps, nxt)


def theta_moment(series: TruncSeries, alpha) -> Fraction:
    """Integral of x^alpha: constant term after applying the theta
    operators alpha_j times each."""
    cur = series
    for j, aj in enumerate(alpha):
        for _ in range(aj):
            cur = _theta(cur, j)
    return Fraction(cur.coeff(tuple(0 for _ in series.caps)))
