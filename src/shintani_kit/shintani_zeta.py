"""Special values of cone zeta functions at nonpositive integers.

For a test function f and an open simplicial cone C the series
sum over v in C of f(v) * N(v)^(-s), with N a product of n linear forms,
continues to s = -k; the value is read off from a truncated generating
function.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._linalg import Vector, minimal_multiplier, vec
from ._rational_padics import is_squarefree
from .cones import ConeFunction, OpenCone
from .errors import (
    IrrationalResidue,
    NotInPositiveOrthant,
)
from .exact_core import QuadScalar, TruncSeries, quad_sign, scalar_rational
from .test_functions import TestFunction, parallelepiped_support, periodicity_lattice


@dataclass(frozen=True)
class NormStructure:
    """n linear forms whose product is the norm polynomial.

    kind "coordinate": the forms are the coordinates themselves.
    kind "quadratic": n = 2 and the second form is the Galois conjugate of
    the first, so values of the norm are rational.
    """

    kind: str
    forms: tuple[tuple, ...]

    @property
    def n(self) -> int:
        return len(self.forms)

    def apply(self, i: int, v: Sequence):
        acc = None
        for c, x in zip(self.forms[i], v):
            term = c * Fraction(x)
            acc = term if acc is None else acc + term
        return acc if acc is not None else Fraction(0)

    def form_values(self, v: Sequence) -> tuple:
        return tuple(self.apply(i, v) for i in range(self.n))


def std_norm(n: int) -> NormStructure:
    forms = tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    )
    return NormStructure("coordinate", forms)


def quadratic_norm(D: int) -> NormStructure:
    """Forms x + y*omega and its conjugate, omega = (1+sqrt(D))/2 for
    D = 1 mod 4 and sqrt(D) otherwise."""
    if D <= 1 or not is_squarefree(D):
        raise ValueError("D must be a squarefree integer > 1")
    if D % 4 == 1:
        omega = QuadScalar(Fraction(1, 2), Fraction(1, 2), D)
    else:
        omega = QuadScalar(0, 1, D)
    one = QuadScalar(1, 0, D)
    forms = ((one, omega), (one, omega.conjugate()))
    return NormStructure("quadratic", forms)


def norm_value(ns: NormStructure, v: Sequence) -> Fraction:
    acc = None
    for i in range(ns.n):
        x = ns.apply(i, v)
        acc = x if acc is None else acc * x
    return scalar_rational(acc)


@dataclass(frozen=True)
class GeneratingFunction:
    """Numerator points and scaled generator forms for one cone."""

    ns: NormStructure
    r: int
    gen_forms: tuple[tuple, ...]
    points: tuple[tuple[tuple, Fraction], ...]
    scaled_gens: tuple[Vector, ...]


def build_G(f: TestFunction, cone: OpenCone, ns: NormStructure) -> GeneratingFunction:
    """Collect the exponential generating data of f on the cone.

    Every generator must make all n linear forms strictly positive;
    otherwise the geometric series used downstream has no common region
    of convergence and the construction is refused.
    """
    if ns.n != f.n or cone.ambient != f.n:
        raise ValueError("dimension mismatch")
    for g in cone.generators:
        for i in range(ns.n):
            if quad_sign(ns.apply(i, g)) <= 0:
                raise NotInPositiveOrthant(
                    f"generator {g} has nonpositive form value at index {i}"
                )
    Lf = periodicity_lattice(f)
    scaled = []
    for g in cone.generators:
        a = minimal_multiplier(vec(g), Lf)
        scaled.append(tuple(a * c for c in vec(g)))
    pts = parallelepiped_support(f, scaled)
    return GeneratingFunction(
        ns=ns,
        r=len(scaled),
        gen_forms=tuple(ns.form_values(w) for w in scaled),
        points=tuple((ns.form_values(v), val) for v, val in pts),
        scaled_gens=tuple(scaled),
    )


def _coefficient_at(G: GeneratingFunction, i: int, k: int):
    """Coefficient of u^(nk+r) * prod_{m != i} x_m^k in the regularized
    one-variable slice of the generating function at x_i = 1."""
    n = G.ns.n
    r = G.r
    ucap = n * k + r + 2
    xcap = k + 2
    caps = (ucap,) + (xcap,) * (n - 1)
    others = [m for m in range(n) if m != i]

    # numerator: sum over points of exp(u * (c0 + sum c_m x_m))
    num: dict = {}
    for forms, val in G.points:
        c0 = forms[i]
        cs = [forms[m] for m in others]
        c0_pow = [None] * (ucap + 1)
        c0_pow[0] = Fraction(1)
        for a in range(ucap):
            c0_pow[a + 1] = c0_pow[a] * c0
        cs_pow = []
        for c in cs:
            row = [None] * (xcap + 1)
            row[0] = Fraction(1)
            for b in range(xcap):
                row[b + 1] = row[b] * c
            cs_pow.append(row)

        def emit(j, beta, prod):
            if j == len(cs):
                wb = sum(beta)
                for a in range(wb, ucap + 1):
                    c = val * prod * c0_pow[a - wb] / math.factorial(a - wb)
                    key = (a, *beta)
                    s = num.get(key, 0) + c
                    if s:
                        num[key] = s
                    else:
                        num.pop(key, None)
                return
            for b in range(xcap + 1):
                emit(j + 1, beta + [b], prod * cs_pow[j][b] / math.factorial(b))

        emit(0, [], Fraction(1))
    P = TruncSeries(caps, num)

    # denominator: product over generators of lambda_j * E1(u * lambda_j),
    # where 1 - exp(w_j . u x) = -u * lambda_j * E1(u * lambda_j)
    denom = TruncSeries.constant(caps, Fraction(1))
    for forms in G.gen_forms:
        lam = {(0,) * n: forms[i]}
        for slot, m in enumerate(others):
            e = [0] * n
            e[slot + 1] = 1
            lam[tuple(e)] = forms[m]
        lam_series = TruncSeries(caps, lam)
        denom = denom * lam_series

        # E1(y) = (e^y - 1)/y as a series in u with polynomial coefficients
        e1: dict = {}
        lam_x = TruncSeries((0,) + caps[1:], {(0, *e[1:]): c for e, c in lam.items()})
        powt = TruncSeries.constant(lam_x.caps, Fraction(1))
        for t in range(ucap + 1):
            inv_fact = Fraction(1, math.factorial(t + 1))
            for e, c in powt.coeffs.items():
                key = (t, *e[1:])
                e1[key] = e1.get(key, 0) + c * inv_fact
            if t < ucap:
                powt = powt * lam_x
        denom = denom * TruncSeries(caps, e1)

    S = P * denom.invert()
    target = (n * k + r,) + (k,) * (n - 1)
    return S.coeff(target)


def special_value(
    f: TestFunction,
    cone,
    k: int,
    ns: NormStructure | None = None,
    conjugate_shortcut: bool = True,
) -> Fraction:
    """Value at s = -k of the cone zeta sum of f(v) N(v)^(-s).

    Accepts a single OpenCone or a ConeFunction (weighted sum of cones
    with zero constant part).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if ns is None:
        ns = std_norm(f.n)
    if isinstance(cone, ConeFunction):
        if cone.constant != 0:
            raise ValueError("cone function has a nonzero constant part")
        total = Fraction(0)
        for weight, c in cone.terms:
            total += weight * special_value(f, c, k, ns, conjugate_shortcut)
        return total
    if not isinstance(cone, OpenCone):
        raise TypeError("cone must be an OpenCone or ConeFunction")

    G = build_G(f, cone, ns)
    if not G.points:
        return Fraction(0)
    n, r = ns.n, G.r
    sign = Fraction(-1) ** r
    if ns.kind == "quadratic" and conjugate_shortcut:
        c = _coefficient_at(G, 0, k)
        rat = c.rational_part() if isinstance(c, QuadScalar) else Fraction(c)
        return Fraction(math.factorial(k)) ** n * sign * rat
    total = None
    for i in range(n):
        c = _coefficient_at(G, i, k)
        total = c if total is None else total + c
    try:
        rat = scalar_rational(total)
    except ArithmeticError as exc:
        raise IrrationalResidue(str(exc)) from None
    return Fraction(math.factorial(k)) ** n * sign * rat / n
