"""Exact scalar and truncated power series arithmetic.

Everything here is rational or quadratic-irrational and exact; no floats.
TruncSeries is the package's single sparse multivariate polynomial type:
it carries the cone generating functions and Amice transforms, the formal
eps-perturbation polynomials of the cocycle, and powers of the norm form.
Its multiplication clamps against per-variable caps rather than growing
without bound; callers that need an exact polynomial choose caps that the
product can never exceed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from typing import Union

from .errors import ZeroConstantTerm

# Grown on demand by bernoulli_number; selftest uses it as a tamper canary.
_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]

Rational = Union[int, Fraction]


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


def _sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class QuadScalar:
    """Element a + b*sqrt(D) of a real quadratic field, exact.

    D must be a nonsquare positive integer; sqrt(D) always denotes the
    positive root, so comparisons have a definite meaning.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a: Rational, b: Rational, D: int):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.D = D

    # -- arithmetic -------------------------------------------------

    def _coerce(self, other) -> "QuadScalar":
        if isinstance(other, QuadScalar):
            if other.D != self.D and other.b != 0 and self.b != 0:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadScalar(other, 0, self.D)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadScalar(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadScalar(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        n = self.a * self.a - self.b * self.b * self.D
        if n == 0:
            raise ZeroDivisionError("zero element")
        return QuadScalar(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "QuadScalar":
        return QuadScalar(self.a, -self.b, self.D)

    # -- structure --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadScalar):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.D == other.D and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"QuadScalar({self.a}, {self.b}, sqrt{self.D})"

    def rational_part(self) -> Fraction:
        return self.a


def quad_sign(x) -> int:
    """Exact sign of a + b*sqrt(D) in {-1, 0, +1}.

    Decided by rational case analysis only: when a and b have opposite
    signs the comparison reduces to a^2 versus b^2 * D.  Equality of
    those squares is impossible for b != 0 since D is not a square.
    """
    if isinstance(x, (int, Fraction)):
        return _sign(Fraction(x))
    a, b, D = x.a, x.b, x.D
    if b == 0:
        return _sign(a)
    if a == 0:
        return _sign(b)
    sa, sb = _sign(a), _sign(b)
    if sa == sb:
        return sa
    aa = a * a
    bb = b * b * D
    if aa == bb:
        raise ArithmeticError("radicand must not be a perfect square")
    # sign determined by the larger magnitude side
    if aa > bb:
        return sa
    return sb


def scalar_rational(x) -> Fraction:
    """Assert-and-extract a rational value."""
    if isinstance(x, QuadScalar):
        if x.b != 0:
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
        return self.coeffs.get(tuple(exp), Fraction(0))

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
