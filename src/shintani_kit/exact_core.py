"""Exact scalar and truncated power series arithmetic.

Everything here is rational or quadratic-irrational and exact; no floats.
QuadScalar holds an element of Q(sqrt D) as integers (A + B*sqrt(D))/q in
lowest terms, so its arithmetic is integer products and one gcd per
result, with no Fraction in between.  TruncSeries is the package's single
sparse multivariate polynomial type: it carries the cone generating
functions and Amice transforms, the formal eps-perturbation polynomials of
the cocycle, and powers of the norm form.  Its multiplication clamps
against per-variable caps rather than growing without bound; callers that
need an exact polynomial choose caps that the product can never exceed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, gcd
from typing import Union

from ._linalg import common_denominator
from .errors import ZeroConstantTerm

# Grown on demand by bernoulli_number; selftest uses it as a tamper canary.
_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]

Rational = Union[int, Fraction]
_ZERO = Fraction(0)


def bernoulli_number(k: int) -> Fraction:
    """k-th Bernoulli number with B_1 = -1/2.

    Computed by the defining recurrence sum(C(n+1, j) * B_j, j <= n) = 0
    and cached at module level.
    """
    if k < 0:
        raise ValueError("negative index")
    while len(_BERNOULLI_CACHE) <= k:
        n = len(_BERNOULLI_CACHE)
        acc = Fraction(0)
        for j in range(n):
            acc += comb(n + 1, j) * _BERNOULLI_CACHE[j]
        _BERNOULLI_CACHE.append(-acc / (n + 1))
    return _BERNOULLI_CACHE[k]


def bernoulli_polynomial(k: int, x: Rational) -> Fraction:
    """B_k(x) = sum of C(k, j) * B_j * x^(k-j)."""
    xf = Fraction(x)
    acc = Fraction(0)
    for j in range(k + 1):
        acc += comb(k, j) * bernoulli_number(j) * xf ** (k - j)
    return acc


def hurwitz_value(a: int, f: int, k: int) -> Fraction:
    """Value at s = -k of the sum of x^(-s) over x > 0, x = a mod f:
    -f^k * B_(k+1)(a/f) / (k+1)."""
    return -(Fraction(f) ** k) * bernoulli_polynomial(k + 1, Fraction(a, f)) / (k + 1)


class QuadScalar:
    """Element (A + B*sqrt(D))/q of a real quadratic field, exact.

    A, B and q are integers with q > 0 and gcd(A, B, q) = 1, so every
    element has one representation; each operation is a few integer
    products and one gcd.  a and b are the rational coordinates A/q and
    B/q.  D must be a nonsquare positive integer; sqrt(D) always denotes
    the positive root, so comparisons have a definite meaning.
    """

    __slots__ = ("A", "B", "q", "D")

    def __init__(self, a: Rational, b: Rational, D: int):
        # over the lcm of two reduced denominators the triple is reduced
        self.q, ((self.A, self.B),) = common_denominator([(Fraction(a), Fraction(b))])
        self.D = D

    @classmethod
    def _reduced(cls, A: int, B: int, q: int, D: int) -> "QuadScalar":
        """(A + B*sqrt(D))/q for q > 0, divided by gcd(A, B, q)."""
        g = gcd(A, B, q)
        x = object.__new__(cls)
        x.A, x.B, x.q, x.D = A // g, B // g, q // g, D
        return x

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.q)

    # -- arithmetic -------------------------------------------------

    def _parts(self, other):
        """(A, B, q) of an int, Fraction or QuadScalar operand, else None."""
        if isinstance(other, QuadScalar):
            if other.D != self.D and other.B and self.B:
                raise ValueError("mixed radicands")
            return other.A, other.B, other.q
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        A, B, q = o
        if q == self.q:
            return QuadScalar._reduced(self.A + A, self.B + B, q, self.D)
        return QuadScalar._reduced(
            self.A * q + A * self.q, self.B * q + B * self.q, self.q * q, self.D
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar._reduced(-self.A, -self.B, self.q, self.D)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QuadScalar)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        A, B, q = o
        return QuadScalar._reduced(
            self.A * A + self.B * B * self.D, self.A * B + self.B * A, self.q * q, self.D
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        # q / (A + B sqrt D) = q (A - B sqrt D) / (A^2 - B^2 D)
        n = self.A * self.A - self.B * self.B * self.D
        if n == 0:
            raise ZeroDivisionError("zero element")
        s = 1 if n > 0 else -1
        return QuadScalar._reduced(s * self.q * self.A, -s * self.q * self.B, s * n, self.D)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadScalar(other, 0, self.D)
        if not isinstance(other, QuadScalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "QuadScalar":
        return QuadScalar._reduced(self.A, -self.B, self.q, self.D)

    # -- structure --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.B and self.A == other.numerator and self.q == other.denominator
        if isinstance(other, QuadScalar):
            if (self.A, self.B, self.q) != (other.A, other.B, other.q):
                return False
            return not self.B or self.D == other.D
        return NotImplemented

    def __hash__(self):
        if not self.B:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __bool__(self):
        return bool(self.A or self.B)

    def __repr__(self):
        return f"QuadScalar({self.a}, {self.b}, sqrt{self.D})"

    def rational_part(self) -> Fraction:
        return self.a


def quad_sign(x) -> int:
    """Exact sign of A + B*sqrt(D) (q > 0) in {-1, 0, +1}.

    Decided by integer case analysis only: when A and B have opposite
    signs the comparison reduces to A^2 versus B^2 * D.  Equality of
    those squares is impossible for B != 0 since D is not a square.
    """
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    A, B = x.A, x.B
    sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    aa = A * A
    bb = B * B * x.D
    if aa == bb:
        raise ArithmeticError("radicand must not be a perfect square")
    # sign determined by the larger magnitude side
    return sa if aa > bb else sb


def scalar_rational(x) -> Fraction:
    """Assert-and-extract a rational value."""
    if isinstance(x, QuadScalar):
        if x.B:
            raise ArithmeticError(f"not rational: {x!r}")
        return x.a
    return Fraction(x)


class TruncSeries:
    """Multivariate power series truncated to per-variable degree caps.

    coeffs maps exponent tuples to scalars (Fraction or QuadScalar);
    absent keys are zero, and stored values are never zero.  Instances
    are immutable by convention: no method mutates, all return new.
    """

    __slots__ = ("caps", "coeffs")

    def __init__(self, caps: tuple[int, ...], coeffs: dict | None = None):
        self.caps = tuple(caps)
        cleaned = {}
        if coeffs:
            for e, c in coeffs.items():
                if all(ei <= cap for ei, cap in zip(e, self.caps)) and c:
                    cleaned[tuple(e)] = c
        self.coeffs = cleaned

    @classmethod
    def constant(cls, caps: tuple[int, ...], value) -> "TruncSeries":
        zero = tuple(0 for _ in caps)
        return cls(caps, {zero: value} if value else {})

    def coeff(self, exp: tuple[int, ...]):
        return self.coeffs.get(tuple(exp), _ZERO)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        assert self.caps == other.caps
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TruncSeries(self.caps, out)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.caps, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def scale(self, factor) -> "TruncSeries":
        if not factor:
            return TruncSeries(self.caps, {})
        return TruncSeries(self.caps, {e: factor * c for e, c in self.coeffs.items()})

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        assert self.caps == other.caps
        caps = self.caps
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(ei > cap for ei, cap in zip(e, caps)):
                    continue
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return TruncSeries(caps, out)

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; requires invertible constant term.

        Coefficient recursion: b_0 = 1/c_0 and, in order of total degree,
        b_e = -b_0 * sum of c_f * b_(e-f) over the nonzero f <= e, so each
        coefficient costs one pass over the terms of the series."""
        zero = tuple(0 for _ in self.caps)
        c0 = self.coeffs.get(zero)
        if not c0:
            raise ZeroConstantTerm("series has no invertible constant term")
        r = c0.inverse() if isinstance(c0, QuadScalar) else 1 / Fraction(c0)
        rest = [(f, c) for f, c in self.coeffs.items() if any(f)]
        out = {zero: r}
        box = product(*(range(cap + 1) for cap in self.caps))
        for e in sorted(box, key=sum)[1:]:
            acc = 0
            for f, c in rest:
                b = out.get(tuple(x - y for x, y in zip(e, f)))
                if b is not None:
                    acc += c * b
            if acc:
                out[e] = -r * acc
        return TruncSeries(self.caps, out)

    def __repr__(self):
        terms = sorted(self.coeffs.items())[:6]
        more = "..." if len(self.coeffs) > 6 else ""
        return f"TruncSeries(caps={self.caps}, {terms}{more})"
