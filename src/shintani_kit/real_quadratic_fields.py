"""Arithmetic of real quadratic fields over the basis (1, omega).

Everything an interpolation run needs in one place: fundamental and ray
units, integral ideals in Hermite form, narrow ray class enumeration,
the Shintani fan of eps_plus, and the exact and p-adic sides of smoothed
partial zeta values, both summed over that one fan by `_fold`.
Principal-ideal tests and the fundamental unit come from the rho-cycle of
reduced ideals (Cohen, GTM 138, 5.7-5.8; Buchmann-Vollmer, Binary
Quadratic Forms, ch. 6); ray class equivalence from the image of the
units in (O/Q)^* x signs (GTM 193, ch. 3).
Field elements are coordinate pairs (x, y) meaning x + y*omega with
omega = (1+sqrt(D))/2 for D = 1 mod 4 and sqrt(D) otherwise, matching
quadratic_norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from ._linalg import columns, from_columns, hnf_with_transform, mat_vec, solve, vec
from ._rational_padics import is_prime, is_squarefree, prime_factors, residue, vp_int
from .cones import ConeFunction, OpenCone
from .errors import BadSmoothingData, ClassSearchExhausted, ShintaniKitError
from .exact_core import QuadScalar, TruncSeries, quad_sign
from .padic_measures import (
    PadicScalar,
    amice_of_cone_function,
    evaluate_at_s,
    polynomial_moment,
    pushforward_norm,
)
from .shintani_zeta import quadratic_norm, special_value
from .test_functions import LatticeTerm, PLevelSet, TestFunction, full_level_set, tensor_at_p

# ray class enumeration guard; keeps a bad input from looking like a hang
RAY_SEARCH_GUARD = 100_000


@dataclass(frozen=True)
class RealQuadraticField:
    """Q(sqrt(D)) for squarefree D > 1, with ring of integers Z[omega]."""

    D: int

    def __post_init__(self):
        if self.D <= 1 or not is_squarefree(self.D):
            raise ValueError("D must be a squarefree integer > 1")

    @property
    def half_basis(self) -> bool:
        return self.D % 4 == 1

    @property
    def disc(self) -> int:
        return self.D if self.half_basis else 4 * self.D

    # omega satisfies omega^2 = trace*omega - norm
    @property
    def omega_trace(self) -> int:
        return 1 if self.half_basis else 0

    @property
    def omega_norm(self) -> int:
        return (1 - self.D) // 4 if self.half_basis else -self.D

    def mul(self, u, v):
        x1, y1 = u
        x2, y2 = v
        yy = y1 * y2
        return (
            x1 * x2 - self.omega_norm * yy,
            x1 * y2 + y1 * x2 + self.omega_trace * yy,
        )

    def conj(self, u):
        x, y = u
        return (x + self.omega_trace * y, -y)

    def norm(self, u):
        x, y = u
        return x * x + self.omega_trace * x * y + self.omega_norm * y * y

    def to_quad(self, u) -> QuadScalar:
        x, y = u
        if self.half_basis:
            return QuadScalar(x + Fraction(y, 2), Fraction(y, 2), self.D)
        return QuadScalar(x, y, self.D)

    def sign_pair(self, u) -> tuple[int, int]:
        q = self.to_quad(u)
        return (quad_sign(q), quad_sign(q.conjugate()))

    def pow(self, u, k: int):
        """u^k; negative exponents are allowed for units only."""
        if k < 0:
            n = self.norm(u)
            if n not in (1, -1):
                raise ValueError("negative powers need a unit")
            inv = self.conj(u)
            if n == -1:
                inv = (-inv[0], -inv[1])
            return self.pow(inv, -k)
        out = (1, 0)
        base = u
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def mult_matrix(self, u):
        """Matrix of multiplication by u on the basis (1, omega)."""
        return from_columns([vec(u), vec(self.mul(u, (0, 1)))])

    def norm_form(self) -> dict:
        """The norm as a polynomial in the coordinates."""
        return {
            (2, 0): Fraction(1),
            (1, 1): Fraction(self.omega_trace),
            (0, 2): Fraction(self.omega_norm),
        }


# ---------------------------------------------------------------------------
# units


def _rho_to_order(field: RealQuadraticField, A: int, B: int):
    """mu with [A, (B + sqrt(disc))/2] = mu * O, from the rho-cycle of the
    ideal; None if an (A, B) repeats before the norm A reaches 1.

    rho multiplies [A, beta], beta = (B + sqrt(disc))/2, by conj(beta)/A,
    giving [|C|, (-B + sqrt(disc))/2] with C = N(beta)/A; the new B is taken
    in (r - 2|C|, r] if |C| <= r = isqrt(disc), else in (-|C|, |C|].  mu
    collects the factors beta/C as (X + Y sqrt(disc))/Z.  The reduced ideals
    of a class form one rho-cycle and O is reduced, so a repeat is a proof.
    """
    disc = field.disc
    r = math.isqrt(disc)
    X, Y, Z = 1, 0, 1
    seen = set()
    while (A, B) not in seen:
        seen.add((A, B))
        C = (B * B - disc) // (4 * A)
        X, Y, Z = X * B + Y * disc, X + Y * B, 2 * C * Z
        g = math.gcd(X, Y, Z) if Z > 0 else -math.gcd(X, Y, Z)
        X, Y, Z = X // g, Y // g, Z // g
        A = abs(C)
        top = r if A <= r else A
        B = top - (top + B) % (2 * A)
        if A == 1:
            return ((X - field.omega_trace * Y) // Z, 2 * Y // Z)
    return None


@lru_cache(maxsize=None)
def fundamental_unit(field: RealQuadraticField) -> tuple[int, int]:
    """The smallest unit greater than 1.

    One turn of the rho-cycle from O back to O multiplies by a unit
    mu = (X + Y sqrt(disc))/2 that generates the units modulo +-1; of
    +-mu and +-mu^-1, the one greater than 1 has X > 0 and Y > 0.
    """
    t, r = field.omega_trace, math.isqrt(field.disc)
    x, y = _rho_to_order(field, 1, r - (r - t) % 2)
    X, Y = abs(2 * x + t * y), abs(y)
    return ((X - t * Y) // 2, Y)


@lru_cache(maxsize=None)
def eps_plus(field: RealQuadraticField) -> tuple[int, int]:
    """Generator of the totally positive units: the fundamental unit or
    its square when the fundamental norm is -1."""
    u0 = fundamental_unit(field)
    if field.norm(u0) == 1:
        return u0
    return field.mul(u0, u0)


def unit_order_mod(field: RealQuadraticField, u, modulus: int) -> int:
    """Multiplicative order of the unit u in (O / modulus O)^*: the group
    order, divided by each prime q while u to the quotient stays 1."""
    order = euler_phi_quadratic(field, modulus)
    for q in prime_factors(order):
        while order % q == 0 and _pow_mod(field, u, order // q, modulus) == (1, 0):
            order //= q
    return order


def _pow_mod(field: RealQuadraticField, u, k: int, modulus: int):
    out, base = (1, 0), (u[0] % modulus, u[1] % modulus)
    while k:
        if k & 1:
            out = tuple(c % modulus for c in field.mul(out, base))
        base = tuple(c % modulus for c in field.mul(base, base))
        k >>= 1
    return out


def ray_unit(field: RealQuadraticField, modulus: int) -> tuple[tuple[int, int], int]:
    """(eps, t) with eps = eps_plus^t the smallest totally positive unit
    congruent to 1 mod (modulus)."""
    base = eps_plus(field)
    t = unit_order_mod(field, base, modulus)
    return field.pow(base, t), t


# ---------------------------------------------------------------------------
# ideals in Hermite form


@dataclass(frozen=True)
class IdealHNF:
    """Integral ideal a*Z + (b + d*omega)*Z with d | a, d | b, 0 <= b < a."""

    field: RealQuadraticField
    a: int
    b: int
    d: int

    def __post_init__(self):
        if self.a <= 0 or self.d <= 0 or not 0 <= self.b < self.a:
            raise ShintaniKitError("not a Hermite basis of an integral ideal")
        if self.a % self.d or self.b % self.d:
            raise ShintaniKitError("lattice is not stable under omega")
        if self.field.norm((self.b, self.d)) % (self.a * self.d):
            raise ShintaniKitError("lattice is not stable under omega")

    @property
    def norm(self) -> int:
        return self.a * self.d

    def basis(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, 0), (self.b, self.d))

    def inverse_basis_matrix(self):
        """Basis of the fractional inverse: the conjugate basis over the norm."""
        n = self.norm
        cols = [
            tuple(Fraction(x, n) for x in self.field.conj(v)) for v in self.basis()
        ]
        return from_columns([vec(c) for c in cols])

    def conjugate(self) -> "IdealHNF":
        # conj(b + d omega) = b + d tr(omega) - d omega, so -b - d tr(omega) mod a
        b = (-self.b - self.d * self.field.omega_trace) % self.a
        return IdealHNF(self.field, self.a, b, self.d)

    def __mul__(self, other: "IdealHNF") -> "IdealHNF":
        if not isinstance(other, IdealHNF):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("ideals of different fields")
        prods = [
            self.field.mul(u, v) for u in self.basis() for v in other.basis()
        ]
        return _ideal_from_vectors(self.field, prods)


def _ideal_from_vectors(field: RealQuadraticField, vectors) -> IdealHNF:
    """Hermite form of an omega-stable integer span (stability is checked
    by the IdealHNF constructor, not restored here)."""
    rows = (
        tuple(int(v[1]) for v in vectors),
        tuple(int(v[0]) for v in vectors),
    )
    h, _ = hnf_with_transform(rows)
    d, a, b = h[0][0], h[1][1], h[1][0]
    if d == 0 or a == 0:
        raise ShintaniKitError("vectors do not span a full lattice")
    return IdealHNF(field, a, b % a, d)


def o_ideal(field: RealQuadraticField) -> IdealHNF:
    return IdealHNF(field, 1, 0, 1)


def rational_ideal(field: RealQuadraticField, n: int) -> IdealHNF:
    return IdealHNF(field, n, 0, n)


def principal_ideal(field: RealQuadraticField, u) -> IdealHNF:
    return _ideal_from_vectors(field, [u, field.mul(u, (0, 1))])


def prime_above(field: RealQuadraticField, ell: int) -> list[IdealHNF]:
    """Degree-one primes over ell: (ell, omega - s) for each root s of the
    minimal polynomial of omega mod ell.  Empty when ell is inert."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    roots = [
        s
        for s in range(ell)
        if (s * s - field.omega_trace * s + field.omega_norm) % ell == 0
    ]
    return [IdealHNF(field, ell, (-s) % ell, 1) for s in roots]


# ---------------------------------------------------------------------------
# class groups


def _generator_of(field: RealQuadraticField, ideal: IdealHNF):
    """A generator of the ideal, or None if it is not principal: d times
    one of its primitive part [A, (B + sqrt(disc))/2], A = a/d and
    B = 2b/d + omega_trace, read off the rho-cycle of that part."""
    d = ideal.d
    A, B = ideal.a // d, 2 * (ideal.b // d) + field.omega_trace
    mu = (1, 0) if A == 1 else _rho_to_order(field, A, B)
    return None if mu is None else (d * mu[0], d * mu[1])


def is_equivalent(
    field: RealQuadraticField,
    I: IdealHNF,
    J: IdealHNF,
    modulus: int = 1,
    narrow: bool = True,
) -> bool:
    """Whether I and J agree in the ray class group mod (modulus), with
    totally positive generators when narrow is set.

    I ~ J iff I * conj(J) has a generator g that is totally positive and
    congruent to norm(J) mod (modulus).  The generators are u * g0 for the
    units u, so that holds iff the unit image contains the residue of
    norm(J) / g0 = norm(J) * conj(g0) / norm(g0) with the signs of g0 (only
    the residue for wide classes).  Ideals must be prime to the modulus.
    """
    Q = modulus
    if math.gcd(I.norm * J.norm, Q) > 1:
        raise ValueError(f"ideals must be prime to the modulus {Q}")
    g0 = _generator_of(field, I * J.conjugate())
    if g0 is None:
        return False
    scale = J.norm * pow(field.norm(g0), -1, Q)
    res = tuple(scale * c % Q for c in field.conj(g0))
    image = _unit_image(field, Q)
    if narrow:
        return (res, field.sign_pair(g0)) in image
    return any(r == res for r, _ in image)


def _ideals_of_norm(field: RealQuadraticField, n: int) -> list[IdealHNF]:
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % (d * d):
            continue
        a = n // d
        for b in range(0, a, d):
            if field.norm((b, d)) % (a * d) == 0:
                out.append(IdealHNF(field, a, b, d))
    return out


def wide_class_reps(field: RealQuadraticField) -> list[IdealHNF]:
    """Ideal class representatives; complete by the Minkowski bound."""
    bound = math.isqrt(field.disc) // 2 + 1
    reps: list[IdealHNF] = []
    for n in range(1, bound + 1):
        for I in _ideals_of_norm(field, n):
            if not any(is_equivalent(field, I, R, 1, narrow=False) for R in reps):
                reps.append(I)
    return reps


def euler_phi_quadratic(field: RealQuadraticField, modulus: int) -> int:
    """Order of (O / modulus O)^*: over p^e || modulus, the product of p^(2e-2)
    times (p-1)^2, p^2-1 or p(p-1) as p splits, is inert or ramifies."""
    count = 1
    for p in prime_factors(modulus):
        local = (p * p - 1, p * (p - 1), (p - 1) ** 2)[len(prime_above(field, p))]
        count *= p ** (2 * vp_int(modulus, p) - 2) * local
    return count


@lru_cache(maxsize=None)
def _unit_image(field: RealQuadraticField, Q: int) -> frozenset:
    """Image of the units +-u0^j in residues mod (Q) times sign pairs; the
    walk stops once a power of u0 is already in it up to sign."""
    u0 = fundamental_unit(field)
    su = field.sign_pair(u0)
    image = set()
    res, sg = (1 % Q, 0), (1, 1)
    while (res, sg) not in image:
        image.add((res, sg))
        image.add((tuple(-c % Q for c in res), (-sg[0], -sg[1])))
        res = tuple(c % Q for c in field.mul(res, u0))
        sg = (sg[0] * su[0], sg[1] * su[1])
    return frozenset(image)


def h_plus_count(field: RealQuadraticField, modulus: int = 1) -> int:
    """Narrow ray class number mod (modulus): h * phi(Q) * 4 over the
    order of the unit image in residues-times-signs."""
    h = len(wide_class_reps(field))
    num = h * euler_phi_quadratic(field, modulus) * 4
    img = len(_unit_image(field, modulus))
    if num % img:
        raise ShintaniKitError("unit image order does not divide the count")
    return num // img


def narrow_ray_class_reps(
    field: RealQuadraticField, modulus: int = 1
) -> list[IdealHNF]:
    """One integral ideal per narrow ray class mod (modulus), each coprime
    to modulus; stops once the analytic count is reached."""
    target = h_plus_count(field, modulus)
    reps: list[IdealHNF] = []
    n = 0
    while len(reps) < target:
        n += 1
        if n > RAY_SEARCH_GUARD:
            raise ClassSearchExhausted("ray class enumeration guard reached")
        if math.gcd(n, modulus) > 1:
            continue
        for I in _ideals_of_norm(field, n):
            if not any(is_equivalent(field, I, R, modulus, True) for R in reps):
                reps.append(I)
                if len(reps) == target:
                    break
    return reps


# ---------------------------------------------------------------------------
# Shintani fans


def shintani_fan(field: RealQuadraticField) -> ConeFunction:
    """Fundamental domain of the totally positive units on the totally
    positive quadrant: the cone {a + b eps_plus : a > 0, b >= 0}, open along
    1 and closed along eps_plus (Shintani 1976), one cone for the open cone
    on (1, eps_plus) plus the ray through 1."""
    return ConeFunction([(Fraction(1), OpenCone(((1, 0), eps_plus(field)), closed=(1,)))])


def _pull_back(field: RealQuadraticField, f: TestFunction, u) -> TestFunction:
    """x -> f(u x) for a unit u and term lattices that are O-modules: each
    term keeps its coefficient and lattice, and its offset o becomes u^-1 o
    reduced mod that lattice."""
    inv, terms = field.pow(u, -1), []
    for t in f.terms:
        x = solve(t.lattice, field.mul(inv, t.offset))
        terms.append(LatticeTerm(t.coeff, mat_vec(t.lattice, [c - math.floor(c) for c in x]), t.lattice))
    return TestFunction(f.n, tuple(terms), f.away_from)


def _fold(field: RealQuadraticField, f: TestFunction, t: int, level: PLevelSet | None = None):
    """f times the indicator of level over the fan of eps_plus^t, moved
    onto `shintani_fan`: that fan is the t translates u*C of its half-open
    cone, u = eps_plus^j for j < t, and (f 1_level)(u x) = f(u x) times
    1_{u^-1 level}(x).  Returns {u^-1 level: the sum of those f(u .)}, with
    None for no level (Shintani 1976, passage to a finite-index subgroup
    of the units)."""
    if t == 1:
        return {level: f}
    base, groups = eps_plus(field), {}
    inv = field.pow(base, -1)
    for j in range(t):
        if j:
            f = _pull_back(field, f, base)
        if j and level is not None:
            level = PLevelSet(level.p, level.m, 2, [field.mul(inv, a) for a in level.offsets])
        groups.setdefault(level, []).extend(f.terms)
    return {U: TestFunction(f.n, tuple(terms), f.away_from) for U, terms in groups.items()}


# ---------------------------------------------------------------------------
# partial zeta values, exact side


def _check_smoothing(field, aideal: IdealHNF, cprime: IdealHNF, modulus: int):
    ell = cprime.norm
    if cprime.d != 1 or not is_prime(ell):
        raise BadSmoothingData("smoothing ideal must be a degree-one prime")
    if math.gcd(ell, modulus * aideal.norm) > 1:
        raise BadSmoothingData("smoothing prime collides with the rest of the data")


def smoothed_ray_function(
    field: RealQuadraticField,
    aideal: IdealHNF,
    cprime: IdealHNF | None,
    lattice_modulus: int,
    offset_modulus: int,
    away: int | None = None,
) -> TestFunction:
    """Indicator of the ray coset 1 + Q a^-1 minus ell times the branch
    shifted by c into the smoothing prime (Q = lattice_modulus), with
    c = 0 mod ell and c = 1 mod offset_modulus."""
    Q = lattice_modulus
    ainv = columns(aideal.inverse_basis_matrix())
    terms = [(Fraction(1), (1, 0), from_columns([tuple(Q * x for x in col) for col in ainv]))]
    if cprime is not None:
        prod = cprime * aideal.conjugate()
        lat2 = from_columns(
            [tuple(Fraction(Q, aideal.norm) * x for x in vec(v)) for v in prod.basis()]
        )
        ell = cprime.norm
        terms.append((Fraction(-ell), (ell * pow(ell, -1, offset_modulus), 0), lat2))
    return TestFunction(2, tuple(terms), away)


def exact_ray_class_zeta(
    field: RealQuadraticField,
    aideal: IdealHNF,
    modulus: int,
    ks: Sequence[int],
    smoothing: IdealHNF | None = None,
    star_at: int | None = None,
) -> list[Fraction]:
    """Values at -k, for each k in ks, of the partial zeta of the narrow
    ray class of aideal mod (modulus), optionally smoothed by a degree-one
    prime and with the p-divisible part of the sum removed (star_at = p).

    The ray coset 1 + Q a^-1 is summed over the fan of the ray unit
    eps_plus^t mod (modulus), by `_fold` on eps_plus's one cone.  aideal
    must be prime to the modulus: a ray class holds no other ideal.  The
    star sums the values over the signed parts of `_level_parts` at level 0.
    """
    Q = modulus
    if math.gcd(aideal.norm, Q) > 1:
        raise ValueError(f"class ideal must be prime to the modulus {Q}")
    eps, t = ray_unit(field, Q)
    if smoothing is not None:
        _check_smoothing(field, aideal, smoothing, Q * (star_at or 1))
    f = _fold(field, smoothed_ray_function(field, aideal, smoothing, Q, Q, star_at), t)[None]
    parts = [f] if star_at is None else [
        tensor_at_p(f, U).scale(s) for s, U in _level_parts(field, eps, star_at, 0)]
    fan, norm = shintani_fan(field), quadratic_norm(field.D)
    values = [sum(v) for v in zip(*(special_value(g, fan, ks, norm) for g in parts))]
    return [Fraction(aideal.norm) ** k * v for k, v in zip(ks, values)]


def field_zeta_value(field: RealQuadraticField, ks: Sequence[int]) -> list[Fraction]:
    """zeta_F(-k) for each k in ks: the sum of the narrow class values."""
    totals = [Fraction(0)] * len(ks)
    for rep in narrow_ray_class_reps(field, 1):
        totals = [t + v for t, v in zip(totals, exact_ray_class_zeta(field, rep, 1, ks))]
    return totals


# ---------------------------------------------------------------------------
# partial zeta values, p-adic side


def _norm_residues(field: RealQuadraticField, p: int, keep) -> tuple:
    """The residues (x, y) mod p whose norm r mod p has keep(r) true."""
    return tuple((x, y) for x in range(p) for y in range(p) if keep(field.norm((x, y)) % p))


def x_level_set(field: RealQuadraticField, eps, p: int, m: int) -> PLevelSet:
    """Support of the level-m interpolation: norm-unit residues at level
    zero, the eps-orbit of 1 mod p^m above it."""
    if m == 0:
        return PLevelSet(p, 1, 2, _norm_residues(field, p, bool))
    pm, offs = p**m, [(1, 0)]
    for _ in range(unit_order_mod(field, eps, pm) - 1):
        offs.append(tuple(c % pm for c in field.mul(offs[-1], eps)))
    return PLevelSet(p, m, 2, offs)


def _level_parts(field: RealQuadraticField, eps, p: int, m: int):
    """The level-m set as signed parts ((sign, level set), ...).  At level 0
    that is all of Z_p^2 minus the non-unit residues mod p when they are the
    fewer (p inert, or split with p >= 5); else x_level_set's one set (at
    split p = 3 its 4 unit cosets take about 2/3 of the time of the lattice
    and 5 cosets).  Each part keeps its own, coarser, periodicity lattice."""
    bad = _norm_residues(field, p, lambda r: r == 0) if m == 0 else ()
    if bad and 2 * len(bad) < p * p:
        return ((1, full_level_set(p, 2)), (-1, PLevelSet(p, 1, 2, bad)))
    return ((1, x_level_set(field, eps, p, m)),)


def _check_prime_setup(field, aideal, cprime, p, conductor):
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if math.gcd(p, field.disc * conductor) > 1:
        raise ValueError("p must be unramified and prime to the conductor")
    if math.gcd(p * conductor, aideal.norm) > 1:
        raise ValueError("class ideal must be prime to p and the conductor")
    _check_smoothing(field, aideal, cprime, p * conductor)


@dataclass(frozen=True)
class PartialZetaValue:
    """p-adic side of one interpolation point, with its exact rational."""

    exact: Fraction
    value: PadicScalar


def _smoothed_class_function(field, aideal, cprime, p, conductor, offset_modulus):
    """Shared setup of the smoothed class measure, after the prime data are
    checked: the ray unit eps = eps_plus^t mod the conductor, t, and the
    smoothed test function (certified away from p) whose smoothed branch
    sits at 1 mod offset_modulus.  Hill's cocycle at (1, eps) gives the
    cone on (1, eps) closed along 1, where `_fold` sums over eps_plus's
    cone closed along eps_plus; the norm is eps-invariant, so no moment
    depends on which edge is closed."""
    _check_prime_setup(field, aideal, cprime, p, conductor)
    eps_f, t = ray_unit(field, conductor)
    return eps_f, t, smoothed_ray_function(field, aideal, cprime, conductor, offset_modulus, p)


def smoothed_class_series(
    field: RealQuadraticField,
    aideal: IdealHNF,
    cprime: IdealHNF,
    p: int,
    m: int,
    conductor: int = 1,
    caps: tuple[int, int] = (4, 4),
) -> TruncSeries:
    """Amice transform of the smoothed class measure restricted to the
    level-m set.  One series serves every moment its caps can reach.

    The measure lives at the conductor level; only the translation offset
    of the smoothed branch is sharpened to 1 mod conductor * p^m, and the
    level enters through the support restriction: the signed parts of
    `_level_parts`, one transform per set `_fold` pulls each back to.
    """
    eps_f, t, f = _smoothed_class_function(field, aideal, cprime, p, conductor, conductor * p**m)
    fan = shintani_fan(field)
    return sum((amice_of_cone_function(g, fan, V, caps).scale(s)
                for s, U in _level_parts(field, eps_f, p, m)
                for V, g in _fold(field, f, t, U).items()), TruncSeries(caps, {}))


def padic_partial_zeta(
    field: RealQuadraticField,
    aideal: IdealHNF,
    series: TruncSeries,
    p: int,
    k: int,
    M: int = 6,
) -> PartialZetaValue:
    """Norm moment of a smoothed class measure, scaled by norm(a)^k: the
    p-adic side of one interpolation point.

    series is the measure's transform from smoothed_class_series, which
    checks the prime data, with caps of at least 2k; one series serves
    every k it reaches.  The moment is an exact rational, reported
    together with its residue mod p^M.
    """
    # norm^k is homogeneous of degree 2k, so caps (2k, 2k) never truncate
    norm = TruncSeries((2 * k, 2 * k), field.norm_form())
    norm_k = TruncSeries.constant(norm.caps, Fraction(1))
    for _ in range(k):
        norm_k = norm_k * norm
    val = Fraction(aideal.norm) ** k * polynomial_moment(series, norm_k.coeffs)
    return PartialZetaValue(val, PadicScalar(p, M, 0, residue(val, p, M)))


@dataclass(frozen=True)
class FieldPadicL:
    """One-variable p-adic L-data: norm pushforwards of the smoothed class
    measure, one component per unit residue of the norm."""

    p: int
    count: int
    components: dict

    def value_at(self, s, twist: int = 0, M: int = 8) -> PadicScalar:
        return evaluate_at_s(self.components, self.p, M, s, twist, self.count)


def field_padic_L(
    field: RealQuadraticField,
    aideal: IdealHNF,
    cprime: IdealHNF,
    p: int,
    conductor: int = 1,
    count: int = 5,
) -> FieldPadicL:
    """Push the smoothed class measure forward along norm(a) * Norm, split
    by the unit residue class of the pushed value.

    Scaling by norm(a) (a p-adic unit) folds the class normalization into
    the measure, so value_at(-k, twist=k) matches the level-zero moment of
    padic_partial_zeta for k below `count`."""
    _, t, f = _smoothed_class_function(field, aideal, cprime, p, conductor, conductor)
    # the norm residue sets are unit-stable, so only f is pulled back
    f, fan = _fold(field, f, t)[None], shintani_fan(field)
    caps = (2 * (count - 1), 2 * (count - 1))
    na = aideal.norm
    norm_int = {e: na * int(v) for e, v in field.norm_form().items()}
    comps: dict[int, TruncSeries] = {}
    for b in range(1, p):
        level = PLevelSet(p, 1, 2, _norm_residues(field, p, lambda r: na * r % p == b))
        ser = amice_of_cone_function(f, fan, level, caps)
        comps[b] = pushforward_norm(ser, norm_int, count)
    return FieldPadicL(p, count, comps)
