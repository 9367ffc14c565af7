"""Special values of cone zeta functions at nonpositive integers.

For a test function f and an open simplicial cone C the series
sum over v in C of f(v) * N(v)^(-s), with N = L_1 ... L_n a product of n
linear forms, continues to s = -k.  Scale the generators of C into the
periodicity lattice of f (w_1..w_r) and write the support points of the
half-open parallelepiped as x = sum t_j w_j with t in (0,1]^r.  With the
slice forms lambda_j(y) = L_i(w_j) + sum_{m != i} L_m(w_j) y_m,

    zeta(C, f, -k) = (-1)^r (k!)^n / n * sum_i C_i(k),

    C_i(k) = sum_{|mu| = nk + r} (prod_j 1/mu_j!)
             * (sum_x f(x) prod_j B_{mu_j}(t_j))
             * [y^(k,...,k)] prod_j lambda_j(y)^(mu_j - 1),

Shintani's closed form (Shintani 1976, J. Fac. Sci. Univ. Tokyo 23,
Prop. 1), from e^(tz)/(e^z - 1) = sum_m B_m(t) z^(m-1)/m!.
`special_value` evaluates it: the points arrive as integers, t = T/q, and
enter only through integer power sums of d*t over the lcm d of their q;
with the values over dv and the Bernoulli numbers over bd, each sum over
x is one integer over dv * d^N * bd^r.  So the field arithmetic scales
with k and not with the number of points, and the y-coefficients come from
the binomial theorem (also for the exponent -1).

`_special_value_series` is the independent check.  It expands the same
generating function as a truncated multivariate series, inverts the
denominator with `TruncSeries.invert` and reads off the coefficient; it
reads no Bernoulli numbers and shares only the enumeration (`build_G`) and
the final normalization with the closed form.  All arithmetic is exact.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._linalg import Vector, common_denominator, identity, minimal_multiplier, vec
from ._rational_padics import is_squarefree
from .cones import ConeFunction, OpenCone
from .errors import (
    IrrationalResidue,
    NotInPositiveOrthant,
)
from .exact_core import (
    QuadScalar,
    TruncSeries,
    bernoulli_number,
    quad_sign,
    scalar_rational,
)
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
    return NormStructure("coordinate", identity(n))


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


@dataclass(frozen=True)
class GeneratingFunction:
    """Parallelepiped points and scaled generator forms for one cone.

    points holds the integer triples (x, t, f(x)) of
    `parallelepiped_support`: x = sum t_j * scaled_gens[j] as (den, *nums)
    and t in (0,1]^r as (q, *T); gen_forms[j] are the n form values of
    scaled_gens[j]."""

    ns: NormStructure
    r: int
    gen_forms: tuple[tuple, ...]
    points: tuple[tuple[tuple[int, ...], tuple[int, ...], Fraction], ...]
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
    return GeneratingFunction(
        ns=ns,
        r=len(scaled),
        gen_forms=tuple(ns.form_values(w) for w in scaled),
        points=tuple(parallelepiped_support(f, scaled)),
        scaled_gens=tuple(scaled),
    )


# ---------------------------------------------------------------------------
# closed form


def _compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _bernoulli_sums(points, r: int, Ns) -> dict[tuple, Fraction]:
    """sum_x f(x) * prod_j B_{mu_j}(t_j) for every mu with |mu| in Ns.

    Expanding B_m(t) = sum_a C(m, a) B_{m-a} t^a reduces the point loop
    to the power sums sum_x f(x) (d t)^alpha, |alpha| <= N = max(Ns), in
    integers over the lcm d of the points' t denominators q and the common
    denominator dv of the values; one pass over the points serves every N
    in Ns.  Each moment is lifted to dv * d^N and the Bernoulli numbers to
    one denominator bd, so each mu is one integer over dv * d^N * bd^r."""
    N = max(Ns)
    d = math.lcm(*(t[0] for _, t, _ in points))
    dv, (values,) = common_denominator([[val for _, _, val in points]])
    # every alpha with |alpha| <= N, each one multiplication away from its
    # parent: alpha = parent + e_j with j at or after parent's last nonzero
    exps = [(0,) * r]
    steps = []
    pos = 0
    while pos < len(exps):
        alpha = exps[pos]
        if sum(alpha) < N:
            last = max((j for j in range(r) if alpha[j]), default=0)
            for j in range(last, r):
                exps.append(alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:])
                steps.append((pos, j))
        pos += 1
    sums = [0] * len(exps)
    for (_, (q, *T), _), v in zip(points, values):
        T = [tj * (d // q) for tj in T]
        mono = [v]
        for parent, j in steps:
            mono.append(mono[parent] * T[j])
        sums = list(map(operator.add, sums, mono))
    moment = {alpha: s * d ** (N - sum(alpha)) for alpha, s in zip(exps, sums)}
    # row[m][a] = C(m, a) * B_{m-a}, the coefficients of B_m(t), over bd
    bd, (B,) = common_denominator([[bernoulli_number(m) for m in range(N + 1)]])
    row = [[math.comb(m, a) * B[m - a] for a in range(m + 1)] for m in range(N + 1)]
    den = dv * d ** N * bd ** r
    out = {}
    for mu in (mu for total in set(Ns) for mu in _compositions(total, r)):
        acc = 0
        for alpha in itertools.product(*(range(m + 1) for m in mu)):
            c = moment[alpha]
            for m, a in zip(mu, alpha):
                if not c:
                    break
                c *= row[m][a]
            acc += c
        out[mu] = Fraction(acc, den)
    return out


def _power_table(x, lo: int, hi: int) -> dict:
    """x^e for lo <= e <= hi, with lo <= 0 <= hi; x may be a QuadScalar."""
    table = {0: Fraction(1)}
    for e in range(1, hi + 1):
        table[e] = table[e - 1] * x
    inv = 1 / x
    for e in range(-1, lo - 1, -1):
        table[e] = table[e + 1] * inv
    return table


def _closed_form_coefficient(G: GeneratingFunction, i: int, k: int, S: dict):
    """C_i(k) = sum_mu S[mu] / prod mu_j! * [y^(k..k)] prod lambda_j^(mu_j - 1).

    lambda_j = a_j + sum_m b_jm y_m with a_j = L_i(w_j) > 0, and the
    y^beta coefficient of lambda^e is, for every integer e (e = -1 too),
    e(e-1)...(e-|beta|+1) / prod beta_m! * a^(e-|beta|) * prod b_m^beta_m."""
    n, r = G.ns.n, G.r
    N = n * k + r
    others = [m for m in range(n) if m != i]
    shares = list(itertools.product(range(k + 1), repeat=n - 1))
    target = (k,) * (n - 1)
    # lam[j][e] maps beta to the y^beta coefficient of lambda_j^e
    lam = []
    for forms in G.gen_forms:
        a_pow = _power_table(forms[i], -1 - k * (n - 1), N - 1)
        b_pows = [_power_table(forms[m], 0, k) for m in others]
        by_e = {}
        for e in range(-1, N):
            coeffs = {}
            for beta in shares:
                s = sum(beta)
                falling = math.prod(e - q for q in range(s))
                if not falling:
                    continue
                c = a_pow[e - s] * Fraction(
                    falling, math.prod(math.factorial(b) for b in beta)
                )
                for bp, b in zip(b_pows, beta):
                    c = c * bp[b]
                coeffs[beta] = c
            by_e[e] = coeffs
        lam.append(by_e)

    def product(p, q):
        out = {}
        for b1, c1 in p.items():
            for b2, c2 in q.items():
                b = tuple(x + y for x, y in zip(b1, b2))
                if all(x <= k for x in b):
                    out[b] = out.get(b, 0) + c1 * c2
        return out

    total = Fraction(0)
    for mu in _compositions(N, r):
        poly = {(0,) * (n - 1): Fraction(1)}
        for by_e, m in zip(lam, mu):
            poly = product(poly, by_e[m - 1])
        coeff = poly.get(target)
        if coeff:
            total = total + coeff * S[mu] / math.prod(math.factorial(m) for m in mu)
    return total


# ---------------------------------------------------------------------------
# generating-function series (the independent second route)


def _slice_series(G: GeneratingFunction, i: int, k: int) -> TruncSeries:
    """The regularized one-variable slice of the generating function at
    x_i = 1, to u^(nk+r+2) and x_m^(k+2) for m != i.  Truncated products
    and inversion are exact below the caps, so its coefficient of
    u^(nk'+r) * prod_{m != i} x_m^k' is C_i(k') for every k' <= k."""
    n = G.ns.n
    r = G.r
    ucap = n * k + r + 2
    xcap = k + 2
    caps = (ucap,) + (xcap,) * (n - 1)
    others = [m for m in range(n) if m != i]

    # numerator: sum over points of exp(u * (c0 + sum c_m x_m))
    num: dict = {}
    for (den, *nums), _, val in G.points:
        forms = G.ns.form_values(tuple(Fraction(x, den) for x in nums))
        c0 = forms[i]
        cs = [forms[m] for m in others]
        c0_pow = list(itertools.accumulate([c0] * ucap, operator.mul, initial=Fraction(1)))
        cs_pow = [
            list(itertools.accumulate([c] * xcap, operator.mul, initial=Fraction(1))) for c in cs
        ]

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

    return P * denom.invert()


def _closed_form_slices(G: GeneratingFunction, ks, indices) -> dict:
    S = _bernoulli_sums(G.points, G.r, [G.ns.n * k + G.r for k in ks])
    return {k: [_closed_form_coefficient(G, i, k, S) for i in indices] for k in ks}


def _series_slices(G: GeneratingFunction, ks, indices) -> dict:
    n, r = G.ns.n, G.r
    series = [_slice_series(G, i, max(ks)) for i in indices]
    return {k: [S.coeff((n * k + r,) + (k,) * (n - 1)) for S in series] for k in ks}


def _cone_value(route, slices, f, cone, ks, ns, conjugate_shortcut) -> list[Fraction]:
    """For each k in ks, (-1)^r (k!)^n times the mean over i of the slice
    coefficients C_i(k), with `slices(G, distinct ks, indices)` computing
    them from the one enumeration G of the cone; a ConeFunction is summed
    term by term through `route`."""
    if any(k < 0 for k in ks):
        raise ValueError("k must be >= 0")
    if ns is None:
        ns = std_norm(f.n)
    if isinstance(cone, ConeFunction):
        if cone.constant != 0:
            raise ValueError("cone function has a nonzero constant part")
        totals = [Fraction(0)] * len(ks)
        for w, c in cone.terms:
            totals = [t + w * v for t, v in zip(totals, route(f, c, ks, ns, conjugate_shortcut))]
        return totals
    if not isinstance(cone, OpenCone):
        raise TypeError("cone must be an OpenCone or ConeFunction")

    if not ks:
        return []
    G = build_G(f, cone, ns)
    if not G.points:
        return [Fraction(0)] * len(ks)
    n, r = ns.n, G.r
    sign = Fraction(-1) ** r
    shortcut = ns.kind == "quadratic" and conjugate_shortcut
    value = {}
    for k, cs in slices(G, list(dict.fromkeys(ks)), (0,) if shortcut else range(n)).items():
        if shortcut:
            # C_1(k) is the Galois conjugate of C_0(k), so the mean is the
            # rational part of C_0(k)
            mean = cs[0].rational_part() if isinstance(cs[0], QuadScalar) else Fraction(cs[0])
        else:
            try:
                mean = scalar_rational(sum(cs[1:], cs[0])) / n
            except ArithmeticError as exc:
                raise IrrationalResidue(str(exc)) from None
        value[k] = Fraction(math.factorial(k)) ** n * sign * mean
    return [value[k] for k in ks]


def special_value(
    f: TestFunction,
    cone,
    ks: Sequence[int],
    ns: NormStructure | None = None,
    conjugate_shortcut: bool = True,
) -> list[Fraction]:
    """Values at s = -k of the cone zeta sum of f(v) N(v)^(-s), one for
    each k in ks, in order.

    Accepts a single OpenCone or a ConeFunction (weighted sum of cones
    with zero constant part).  Each cone is enumerated once for the whole
    list.  Evaluated by Shintani's closed form (see the module docstring);
    `_special_value_series` computes the same values from the
    generating-function series and is its check.
    """
    return _cone_value(
        special_value, _closed_form_slices, f, cone, ks, ns, conjugate_shortcut
    )


def _special_value_series(
    f: TestFunction,
    cone,
    ks: Sequence[int],
    ns: NormStructure | None = None,
    conjugate_shortcut: bool = True,
) -> list[Fraction]:
    """`special_value` by series expansion and inversion of the generating
    function, reading no Bernoulli numbers."""
    return _cone_value(
        _special_value_series, _series_slices, f, cone, ks, ns, conjugate_shortcut
    )
