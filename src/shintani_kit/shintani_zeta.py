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
`special_value` evaluates it in integers.  The points, t = T/q, enter only
through integer power sums of d*t, so each sum over x is one integer over
one denominator; the y-coefficients come from the binomial theorem (also
for the exponent -1) as integer pairs A + B sqrt D over one denominator per
generator, tabled once per cone for the largest k.  So the cost scales with
k and not with the number of points, and each value is reduced once.

`_special_value_series` is the independent check.  It expands the same
generating function as a truncated multivariate series, inverts the
denominator with `TruncSeries.invert` and reads off the coefficient; it
reads no Bernoulli numbers and shares only the enumeration (`build_G`) and
the final normalization with the closed form.  All arithmetic is exact.
"""

from __future__ import annotations

import functools
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

    def form_values(self, v: Sequence) -> tuple:
        v = vec(v)
        return tuple(sum(map(operator.mul, c[1:], v[1:]), c[0] * v[0]) for c in self.forms)


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
    forms = [ns.form_values(g) for g in cone.generators]
    for g, values in zip(cone.generators, forms):
        for i, x in enumerate(values):
            if quad_sign(x) <= 0:
                shown = ", ".join(f"{c.numerator}/{c.denominator}" for c in g)
                msg = f"generator ({shown}) has nonpositive form value at index {i}"
                raise NotInPositiveOrthant(msg)
    Lf = periodicity_lattice(f)
    mults = [minimal_multiplier(g, Lf) for g in cone.generators]
    scaled = [tuple(a * c for c in g) for a, g in zip(mults, cone.generators)]
    return GeneratingFunction(
        ns=ns,
        r=len(scaled),
        gen_forms=tuple(tuple(a * x for x in values) for a, values in zip(mults, forms)),
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


def _bernoulli_sums(points, r: int, Ns) -> tuple[int, dict[tuple, int]]:
    """sum_x f(x) * prod_j B_{mu_j}(t_j) for every mu with |mu| in Ns, as
    one denominator and the integer numerator of each mu over it.

    Expanding B_m(t) = sum_a C(m, a) B_{m-a} t^a reduces the point loop
    to the power sums sum_x f(x) (d t)^alpha, |alpha| <= N = max(Ns), in
    integers over the lcm d of the points' t denominators q and the common
    denominator dv of the values; one pass over the points serves every N
    in Ns.  Each moment is lifted to dv * d^N and the Bernoulli numbers to
    one denominator bd, so every mu is an integer over dv * d^N * bd^r."""
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
        out[mu] = acc
    return den, out


def _closed_form_coefficient(G: GeneratingFunction, i: int, ks, S) -> list:
    """C_i(k) = sum_mu S[mu] / prod mu_j! * [y^(k..k)] prod lambda_j^(mu_j - 1)
    for each k in ks, with S = (den, numerators) from `_bernoulli_sums`.

    lambda_j = a_j + sum_m b_jm y_m with a_j = L_i(w_j) > 0, and the
    y^beta coefficient of lambda^e is, for every integer e (e = -1 too),
    e(e-1)...(e-|beta|+1) / prod beta_m! * a^(e-|beta|) * prod b_m^beta_m.
    With w_j's form values as integer pairs (A + B sqrt D)/q_j, it is an
    integer pair over q_j^top (q_j a_j)^H (top = nK + r - 1, H = 1 + K(n-1),
    K = max(ks)), so one table per generator serves every k, products stay
    unreduced, and prod_j q_j^top (q_j a_j)^H is divided out once per k."""
    sden, S = S
    n, r = G.ns.n, G.r
    K = max(ks)
    H, top = 1 + K * (n - 1), n * K + r - 1
    D = next((x.D for forms in G.gen_forms for x in forms if isinstance(x, QuadScalar)), 0)

    def mul(x, y):
        return x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def powers(x, count):
        return list(itertools.accumulate([x] * count, mul, initial=(1, 0)))

    shares = list(itertools.product(range(K + 1), repeat=n - 1))
    lam, P, Q = [], (1, 0), 1
    for forms in G.gen_forms:
        # a quadratic norm gives QuadScalars (A + B sqrt D)/q, read as they are
        if D:
            q = math.lcm(*(x.q for x in forms))
            pairs = [(x.A * (q // x.q), x.B * (q // x.q)) for x in forms]
        else:
            q, (flat,) = common_denominator([forms])
            pairs = [(a, 0) for a in flat]
        P, Q = mul(P, pairs[i]), Q * q
        a_pow = powers(pairs[i], top + H)
        b_pows = [powers(b, K) for b in pairs[:i] + pairs[i + 1:]]
        b_prod = [functools.reduce(mul, xs, (1, 0)) for xs in itertools.product(*b_pows)]
        # lam[j][e + 1] maps beta to the numerator of lambda_j^e's y^beta coefficient
        lam.append([{} for _ in range(top + 2)])
        for e, coeffs in enumerate(lam[-1], -1):
            for beta, x in zip(shares, b_prod):
                s = sum(beta)
                c = math.prod(range(e, e - s, -1)) // math.prod(map(math.factorial, beta))
                if c:
                    x, c = mul(a_pow[e - s + H], x), c * q ** (top - e)
                    coeffs[beta] = (c * x[0], c * x[1])
    PA, PB = powers(P, H)[H]

    out = []
    for k in ks:
        N = n * k + r
        X = Y = 0
        for mu in _compositions(N, r):
            poly = lam[0][mu[0]]
            for by_e, m in zip(lam[1:], mu[1:]):
                nxt = {}
                for b1, c1 in poly.items():
                    for b2, c2 in by_e[m].items():
                        b = tuple(map(operator.add, b1, b2))
                        if max(b, default=0) <= k:
                            x, y = mul(c1, c2), nxt.get(b, (0, 0))
                            nxt[b] = (x[0] + y[0], x[1] + y[1])
                poly = nxt
            vx, vy = poly.get((k,) * (n - 1), (0, 0))
            w = S[mu] * math.factorial(N) // math.prod(map(math.factorial, mu))
            X, Y = X + w * vx, Y + w * vy
        # 1/(PA + PB sqrt D) = 1/prod_j (q_j a_j)^H through the conjugate
        den = sden * math.factorial(N) * Q ** top * (PA * PA - D * PB * PB)
        X, Y = X * PA - D * Y * PB, Y * PA - X * PB
        out.append(QuadScalar(Fraction(X, den), Fraction(Y, den), D) if D else Fraction(X, den))
    return out


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
    rows = [_closed_form_coefficient(G, i, ks, S) for i in indices]
    return {k: list(cs) for k, *cs in zip(ks, *rows)}


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
