"""Reference routines used only by the test suite.

Each one answers a question the package itself never asks on any path
(membership, traces, translates, congruences), so it lives here rather
than in ``src/``.  ``span_coordinates`` solves for span coordinates by its
own reduction of [G | v], independently of ``_linalg.span_rows``.
"""

from fractions import Fraction

from shintani_kit._linalg import Vector, _rref, vec
from shintani_kit._rational_padics import is_p_integral, residue
from shintani_kit.errors import NotAwayFromP, SingularMatrix
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
