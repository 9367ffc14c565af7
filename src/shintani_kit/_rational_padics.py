"""p-adic bookkeeping for exact rationals: valuations, unit parts, and
residues modulo prime powers; plus the trial-division primality,
squarefreeness and prime-factor helpers the field and CLI layers share."""

from __future__ import annotations

from fractions import Fraction


def vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp(q, p: int) -> int:
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero")
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def pfree_part(q, p: int) -> Fraction:
    """q divided by its p-power content; zero stays zero."""
    q = Fraction(q)
    if q == 0:
        return q
    return q / Fraction(p) ** vp(q, p)


def is_p_integral(q, p: int) -> bool:
    return Fraction(q).denominator % p != 0


def residue(q, p: int, M: int) -> int:
    """q mod p^M for a p-integral rational q."""
    q = Fraction(q)
    mod = p ** M
    if q.denominator % p == 0:
        raise ValueError("not p-integral")
    return q.numerator * pow(q.denominator, -1, mod) % mod


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def is_squarefree(d: int) -> bool:
    q = 2
    while q * q <= d:
        if d % (q * q) == 0:
            return False
        q += 1
    return True


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n > 0, ascending."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out
