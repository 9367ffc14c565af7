"""Independent reference values for the test suite.

Everything here is implemented from closed formulas, deliberately not
sharing code paths with the package: Bernoulli numbers come from the
worpitzky double sum rather than the package recurrence, the field
zeta values at -1 and -3 come from sigma-divisor sums, the partial
zeta of one narrow class at 0 from Meyer's continued-fraction formula,
and the Euler factor of a rational prime from the Kronecker symbol of
the field discriminant.
"""

from fractions import Fraction
from math import comb, isqrt


def bernoulli_oracle(n: int) -> Fraction:
    """Worpitzky's formula: B_n = sum_k (1/(k+1)) sum_j (-1)^j C(k,j) j^n.

    Gives the B_1 = -1/2 convention directly (0^0 counts as 1)."""
    total = Fraction(0)
    for k in range(n + 1):
        inner = 0
        for j in range(k + 1):
            inner += (-1) ** j * comb(k, j) * j ** n
        total += Fraction(inner, k + 1)
    return total


def bernoulli_poly_oracle(n: int, x) -> Fraction:
    x = Fraction(x)
    return sum(
        comb(n, j) * bernoulli_oracle(j) * x ** (n - j) for j in range(n + 1)
    )


def hurwitz_special_value(a: int, f: int, k: int) -> Fraction:
    """Value at s = -k of sum over n > 0, n = a mod f, of n^(-s)."""
    if f <= 0 or not 1 <= a:
        raise ValueError("need f >= 1 and a >= 1")
    return -Fraction(f) ** k * bernoulli_poly_oracle(k + 1, Fraction(a, f)) / (k + 1)


def sigma(n: int, power: int = 1) -> int:
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d ** power
    return total


def field_discriminant(D: int) -> int:
    return D if D % 4 == 1 else 4 * D


def siegel_zeta_minus_one(D: int) -> Fraction:
    """zeta_F(-1) for F = Q(sqrt(D)) via the sigma_1 sum over the
    discriminant."""
    disc = field_discriminant(D)
    total = 0
    for t in range(-isqrt(disc), isqrt(disc) + 1):
        if (disc - t * t) % 4 == 0 and disc - t * t > 0:
            total += sigma((disc - t * t) // 4, 1)
    return Fraction(total, 60)


def siegel_zeta_minus_three(D: int) -> Fraction:
    disc = field_discriminant(D)
    total = 0
    for t in range(-isqrt(disc), isqrt(disc) + 1):
        if (disc - t * t) % 4 == 0 and disc - t * t > 0:
            total += sigma((disc - t * t) // 4, 3)
    return Fraction(total, 120)


def kronecker_symbol(d: int, q: int) -> int:
    """(d/q) for a prime q: Euler's criterion for odd q, and for q = 2 by
    d mod 8."""
    if d % q == 0:
        return 0
    if q == 2:
        return 1 if d % 8 in (1, 7) else -1
    return 1 if pow(d, (q - 1) // 2, q) == 1 else -1


def euler_factor(D: int, q: int, k: int) -> int:
    """E_q(k), the product of 1 - N(P)^k over the primes P of Q(sqrt(D))
    above the rational prime q: (1 - q^k)^2 when q splits, 1 - q^(2k)
    when it is inert and 1 - q^k when it ramifies."""
    chi = kronecker_symbol(field_discriminant(D), q)
    if chi == 1:
        return (1 - q**k) ** 2
    return 1 - q ** (2 * k) if chi == -1 else 1 - q**k


def meyer_zeta_zero(disc: int, a: int, b: int, t: int) -> Fraction:
    """zeta(B, 0) for the narrow class B of the ideal [a, b + omega] of
    the real quadratic field of discriminant disc, where t is the trace of
    omega: by Meyer's formula, sum(b_i - 3) / 12 over the period of the
    minus continued fraction of w = (2b + t + sqrt(disc)) / (2a), with
    w = b_0 - 1/w_1 and b_i = floor(w_i) + 1 (Zagier, "Nombres de classes
    et fractions continues", Asterisque 24-25, 1975)."""
    r = isqrt(disc)
    P, Q = 2 * b + t, 2 * a
    seen: dict[tuple[int, int], int] = {}
    digits = []
    while (P, Q) not in seen:
        seen[P, Q] = len(digits)
        if Q > 0:
            bi = (P + r) // Q + 1
        else:
            bi = (-P - r - 1) // -Q + 1
        digits.append(bi)
        P = bi * Q - P
        Q = (P * P - disc) // Q
    period = digits[seen[P, Q]:]
    return Fraction(sum(bi - 3 for bi in period), 12)
