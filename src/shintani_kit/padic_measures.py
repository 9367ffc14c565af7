"""p-adic pseudo-measures attached to cones and their Amice transforms.

A pseudo-measure is stored as a finite exponential numerator over a
product of factors (1 - q^(a_i * d_i)).  When a vanishing criterion holds
the quotient is the transform of a genuine measure on Z_p^n and can be
expanded as a power series whose p-integral rational coefficients are the
Mahler coefficients of the measure.  Moments are then exact rationals:
by Mahler's theorem each is a sum of Mahler coefficients weighted by
Stirling numbers of the second kind (Mahler, J. reine angew. Math. 199,
1958; Colmez, Asterisque 330, 2010, section 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ._linalg import (
    Matrix,
    Vector,
    det,
    from_columns,
    inverse,
    mat_vec,
    minimal_multiplier,
    vec,
)
from ._rational_padics import is_p_integral, residue, vp, vp_int
from .cones import ConeFunction, OpenCone, primitive_direction
from .errors import (
    GuardTripped,
    NonUnitScaling,
    NotAwayFromP,
    OutOfCaps,
    PoleDetected,
    PrecisionExhausted,
    RouteDisagreement,
    SingularMatrix,
)
from .exact_core import TruncSeries
from .test_functions import (
    PLevelSet,
    TestFunction,
    lattice_indicator,
    parallelepiped_support,
    periodicity_lattice,
    tensor_at_p,
    vanishing_check,
    zn_indicator,
)

COMPLETION_VALUATION_GUARD = 6


def comb_int(z: int, j: int) -> int:
    """Binomial coefficient C(z, j) for any integer z, j >= 0."""
    if j < 0:
        raise ValueError("negative lower index")
    if z >= 0:
        return math.comb(z, j)
    return (-1) ** j * math.comb(j - z - 1, j)


def binomial_row(x, cap: int) -> list[Fraction]:
    """C(x, 0), ..., C(x, cap) for rational x, each from the one before;
    p-integral whenever x is."""
    row = [Fraction(1)]
    for k in range(1, cap + 1):
        row.append(row[-1] * (x - k + 1) / k)
    return row


def teichmuller(b: int, p: int, M: int) -> int:
    """The (p-1)-st root of unity congruent to b, mod p^M."""
    mod = p ** M
    x = b % mod
    if x % p == 0:
        raise ValueError("no Teichmuller lift of a multiple of p")
    for _ in range(4 * M + 4):
        nxt = pow(x, p, mod)
        if nxt == x:
            return x
        x = nxt
    raise ArithmeticError("Teichmuller iteration failed to stabilize")


@dataclass(frozen=True)
class PadicScalar:
    """A p-adic number known modulo p^(M - guard).

    M is the requested working precision; guard counts the digits lost to
    truncation, so the residue is canonical mod p^(M - guard)."""

    p: int
    M: int
    guard: int
    residue: int

    def __post_init__(self):
        if not 0 <= self.guard <= self.M:
            raise ValueError("guard out of range")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    @property
    def precision(self) -> int:
        return self.M - self.guard

    @property
    def modulus(self) -> int:
        return self.p ** self.precision


# ---------------------------------------------------------------------------
# pseudo-measures


@dataclass(frozen=True)
class PseudoMeasure:
    """Numerator sum of c * q^v over a denominator prod(1 - q^(a_i d_i)).

    d_i are integer direction vectors already carrying the level p^m; the
    multipliers a_i must be p-units, otherwise the denominator cannot be
    regularized and construction is refused."""

    p: int
    m: int
    n: int
    numerator: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    denoms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __post_init__(self):
        num = tuple(
            (tuple(Fraction(x) for x in e), Fraction(c)) for e, c in self.numerator
        )
        object.__setattr__(self, "numerator", tuple(sorted(num)))
        den = []
        for a, d in self.denoms:
            a = Fraction(a)
            if a <= 0:
                raise ValueError("multiplier must be positive")
            if vp(a, self.p) != 0:
                raise NonUnitScaling(f"multiplier {a} is not a {self.p}-unit")
            den.append((a, tuple(int(x) for x in d)))
        object.__setattr__(self, "denoms", tuple(den))

    @property
    def r(self) -> int:
        return len(self.denoms)


def pseudo_from_cone(f: TestFunction, cone: OpenCone, U: PLevelSet) -> PseudoMeasure:
    """Pseudo-measure of f restricted to the cone and the level set U.

    f must be certified away from U.p; directions are the primitive integer
    generators scaled by p^m so their multipliers stay p-units."""
    if f.away_from is None or f.away_from != U.p:
        raise NotAwayFromP("pseudo_from_cone needs f certified away from U.p")
    if cone.ambient != f.n or U.n != f.n:
        raise ValueError("dimension mismatch")
    ft = tensor_at_p(f, U)
    L = periodicity_lattice(ft)
    pm = U.p ** U.m
    denoms = []
    scaled = []
    for g in cone.generators:
        v = primitive_direction(g)
        d = tuple(pm * x for x in v)
        a = minimal_multiplier(vec(d), L)
        denoms.append((a, d))
        scaled.append(tuple(a * Fraction(x) for x in d))
    pts = parallelepiped_support(ft, scaled)
    return PseudoMeasure(
        p=U.p,
        m=U.m,
        n=f.n,
        numerator=tuple((x, val) for x, _, val in pts),
        denoms=tuple(denoms),
    )


# ---------------------------------------------------------------------------
# direction completion and piece data


def _complete_directions(ds: Sequence[tuple[int, ...]], n: int, p: int) -> Matrix:
    """Square matrix whose first columns are the d_i, completed by standard
    basis vectors chosen to minimize the p-valuation of the determinant."""
    cols = [vec(d) for d in ds]
    r = len(cols)
    if r == n:
        D = from_columns(cols)
        if det(D) == 0:
            raise SingularMatrix("directions are dependent")
        return D
    best = None
    for extra in itertools.combinations(range(n), n - r):
        cand = from_columns(cols + [vec(tuple(int(i == j) for i in range(n))) for j in extra])
        dd = det(cand)
        if dd == 0:
            continue
        score = (vp(dd, p), abs(dd), extra)
        if best is None or score < best[0]:
            best = (score, cand)
    if best is None:
        raise SingularMatrix("directions cannot be completed to a basis")
    if best[0][0] > COMPLETION_VALUATION_GUARD:
        raise GuardTripped("completed basis determinant has excessive p-valuation")
    return best[1]


def _pfrac(x: Fraction, p: int) -> Fraction:
    """Canonical representative of x modulo the p-integral rationals."""
    j = vp_int(x.denominator, p)
    if j == 0:
        return Fraction(0)
    pj = p ** j
    return Fraction(residue(x * pj, p, j), pj)


def _numerator_coordinates(pm: PseudoMeasure):
    """(coefficient, D^{-1} exponent) pairs plus the completed matrix D."""
    D = _complete_directions([d for _, d in pm.denoms], pm.n, pm.p)
    Dinv = inverse(D)
    monos = [(c, mat_vec(Dinv, e)) for e, c in pm.numerator]
    return D, monos


# ---------------------------------------------------------------------------
# measure criterion, two independent routes


def _measure_by_grouping(pm: PseudoMeasure) -> bool:
    """Exact divisibility of each piece of the transform by every T_i,
    tested by grouping numerator coefficients; no series truncation."""
    if not pm.numerator:
        return True
    _, monos = _numerator_coordinates(pm)
    for i in range(pm.r):
        groups: dict = {}
        for c, mcoords in monos:
            key = (
                _pfrac(mcoords[i], pm.p),
                tuple(x for j, x in enumerate(mcoords) if j != i),
            )
            groups[key] = groups.get(key, Fraction(0)) + c
        if any(v != 0 for v in groups.values()):
            return False
    return True


def is_measure(f: TestFunction, cone: OpenCone, U: PLevelSet) -> bool:
    """Whether the pseudo-measure of (f, cone, U) is a genuine measure.

    Decided twice: once through the prime-to-p line-mass vanishing of f in
    the primitive generator directions, once through exact coefficient
    grouping of the transform numerator.  The two verdicts are compared
    and a disagreement raises rather than picking a side."""
    route_a = all(
        vanishing_check(f, primitive_direction(g)) for g in cone.generators
    )
    route_b = _measure_by_grouping(pseudo_from_cone(f, cone, U))
    if route_a != route_b:
        raise RouteDisagreement(
            f"direction-vanishing route says {route_a}, "
            f"coefficient-grouping route says {route_b}"
        )
    return route_b


# ---------------------------------------------------------------------------
# Amice expansion


def _piece_numerator(
    terms: list[tuple[Fraction, Vector]],
    build_caps: tuple[int, ...],
    budget: int,
) -> TruncSeries:
    """Sum of c * prod_j (1+T_j)^(mu_j), truncated per-variable and by
    total degree."""
    n = len(build_caps)
    out: dict = {}
    for c, mu in terms:
        rows = [binomial_row(mu[j], build_caps[j]) for j in range(n)]

        def emit(j: int, exp: list[int], val: Fraction, left: int):
            if j == n:
                key = tuple(exp)
                s = out.get(key, 0) + val
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
                return
            for k in range(min(build_caps[j], left) + 1):
                cv = rows[j][k]
                if cv:
                    emit(j + 1, exp + [k], val * cv, left - k)

        emit(0, [], c, budget)
    return TruncSeries(build_caps, out)


def _divide_by_t(series: TruncSeries, r: int, caps: tuple[int, ...]) -> TruncSeries:
    """Divide by T_1 * ... * T_r, verifying the visible obstruction first."""
    for e, c in series.coeffs.items():
        if any(e[i] == 0 for i in range(r)):
            raise PoleDetected(
                "transform numerator is not divisible by its denominator support"
            )
    shifted = {
        tuple(ei - (1 if i < r else 0) for i, ei in enumerate(e)): c
        for e, c in series.coeffs.items()
    }
    return TruncSeries(caps, shifted)


def _unit_factor_inverse(pm: PseudoMeasure, tcaps: tuple[int, ...]) -> TruncSeries:
    """Inverse of prod_i of -sum_{j>=1} C(a_i, j) T_i^(j-1).

    Each factor only involves T_i, so it is inverted as a one-variable
    series and the results are multiplied back together."""
    n = len(tcaps)
    acc = TruncSeries.constant(tcaps, Fraction(1))
    for i, (a, _) in enumerate(pm.denoms):
        cap = tcaps[i]
        one = {(j,): -c for j, c in enumerate(binomial_row(a, cap + 1)[1:])}
        inv1 = TruncSeries((cap,), one).invert()
        emb = {
            tuple(e[0] if jj == i else 0 for jj in range(n)): c
            for e, c in inv1.coeffs.items()
        }
        acc = acc * TruncSeries(tcaps, emb)
    return acc


class _Substitution:
    """Monomial tables for rewriting T_i = prod_j (1+S_j)^D_{ji} - 1."""

    def __init__(self, D: Matrix, caps: tuple[int, ...], tcap: int):
        self.caps = caps
        self.tcap = tcap
        n = len(caps)
        self.tables: list[list[TruncSeries]] = []
        for i in range(n):
            base_exps = [int(D[j][i]) for j in range(n)]
            base = _binomial_product(base_exps, caps) - TruncSeries.constant(
                caps, Fraction(1)
            )
            row = [TruncSeries.constant(caps, Fraction(1))]
            for _ in range(tcap):
                row.append(row[-1] * base)
            self.tables.append(row)
        self._cache: dict = {}

    def monomial(self, exp: tuple[int, ...]) -> TruncSeries:
        got = self._cache.get(exp)
        if got is not None:
            return got
        nz = [i for i, e in enumerate(exp) if e]
        if not nz:
            out = TruncSeries.constant(self.caps, Fraction(1))
        elif len(nz) == 1:
            out = self.tables[nz[0]][exp[nz[0]]]
        else:
            i = nz[-1]
            rest = tuple(e if j != i else 0 for j, e in enumerate(exp))
            out = self.monomial(rest) * self.tables[i][exp[i]]
        self._cache[exp] = out
        return out


def _binomial_product(exponents: Sequence, caps: tuple[int, ...]) -> TruncSeries:
    """prod_j (1+S_j)^(e_j) for rational exponents (integers of either sign
    included), truncated to caps."""
    out = TruncSeries.constant(caps, Fraction(1))
    for j, e in enumerate(exponents):
        coeffs = {
            tuple(k if jj == j else 0 for jj in range(len(caps))): c
            for k, c in enumerate(binomial_row(e, caps[j]))
        }
        out = out * TruncSeries(caps, coeffs)
    return out


def amice_expand(pm: PseudoMeasure, caps: tuple[int, ...]) -> TruncSeries:
    """Power-series transform of a pseudo-measure satisfying the measure
    criterion, with exact rational (p-integral) coefficients.

    caps are per-variable degree bounds in the standard coordinates; the
    divisibility by the denominator support is re-verified on the visible
    truncation and failure raises PoleDetected."""
    if len(caps) != pm.n:
        raise ValueError("caps dimension mismatch")
    if not pm.numerator:
        return TruncSeries(caps, {})
    D, monos = _numerator_coordinates(pm)
    r = pm.r
    p = pm.p
    tcap = sum(caps)
    tcaps = (tcap,) * pm.n
    build_caps = tuple(tcap + 1 if i < r else tcap for i in range(pm.n))

    # partition by p-fractional class of the coordinates
    pieces: dict = {}
    for c, mcoord in monos:
        w = tuple(_pfrac(x, p) for x in mcoord)
        mu = tuple(x - wx for x, wx in zip(mcoord, w))
        pieces.setdefault(w, []).append((c, mu))

    inv_units = _unit_factor_inverse(pm, tcaps) if r else TruncSeries.constant(
        tcaps, Fraction(1)
    )
    subst = _Substitution(D, caps, tcap)
    total = TruncSeries(caps, {})
    for w in sorted(pieces):
        terms = pieces[w]
        F = _piece_numerator(terms, build_caps, tcap + r)
        F = _divide_by_t(F, r, tcaps) if r else TruncSeries(tcaps, F.coeffs)
        G = F * inv_units
        piece_series = TruncSeries(caps, {})
        for e, c in sorted(G.coeffs.items()):
            if sum(e) > tcap:
                continue
            piece_series = piece_series + subst.monomial(e).scale(c)
        dw = mat_vec(D, vec(w))
        if any(not is_p_integral(x, p) for x in dw):
            raise ArithmeticError("piece offset is not p-integral")
        if any(dw):
            piece_series = piece_series * _binomial_product(dw, caps)
        total = total + piece_series
    return total


# ---------------------------------------------------------------------------
# moments


def _stirling_row(a: int) -> list[int]:
    """b! * S(a, b) for b = 0..a, from S(a+1, b) = b S(a, b) + S(a, b-1)."""
    row = [1]
    for _ in range(a):
        row.append(0)
        row = [0] + [b * (row[b - 1] + row[b]) for b in range(1, len(row))]
    return row


def moment(series: TruncSeries, alpha: tuple[int, ...]) -> Fraction:
    """Integral of x^alpha: the Mahler coefficients a_beta weighted by
    prod_j beta_j! S(alpha_j, beta_j), by Mahler's theorem.  Exact when
    alpha fits under the caps."""
    if any(a > cap for a, cap in zip(alpha, series.caps)):
        raise OutOfCaps(f"moment index {alpha} beyond caps {series.caps}")
    rows = [_stirling_row(a) for a in alpha]
    total = Fraction(0)
    for e, c in series.coeffs.items():
        if all(b <= a for b, a in zip(e, alpha)):
            total += math.prod(row[b] for row, b in zip(rows, e)) * c
    return total


def polynomial_moment(series: TruncSeries, poly: dict) -> Fraction:
    """Integral of a polynomial given as exponent -> coefficient."""
    total = Fraction(0)
    for alpha, c in sorted(poly.items()):
        if c:
            total += Fraction(c) * moment(series, tuple(alpha))
    return total


# ---------------------------------------------------------------------------
# pushforward along a norm polynomial


def pushforward_norm(series: TruncSeries, norm_poly: dict, count: int) -> TruncSeries:
    """One-variable transform of the image measure under x -> N(x).

    Mahler coefficient j of the image is recovered from the finite Newton
    expansion of C(N(x), j), which is exact as long as 2j fits under every
    cap of the source series."""
    n = len(series.caps)
    need = 2 * (count - 1)
    if any(cap < need for cap in series.caps):
        raise PrecisionExhausted(
            f"pushforward needs caps >= {need}, have {series.caps}"
        )

    def norm_at(gamma: tuple[int, ...]) -> int:
        total = Fraction(0)
        for alpha, c in norm_poly.items():
            term = Fraction(c)
            for g, a in zip(gamma, alpha):
                term *= Fraction(g) ** a
            total += term
        if total.denominator != 1:
            raise ValueError("norm polynomial must be integer-valued on the grid")
        return total.numerator

    out = {}
    for j in range(count):
        box = 2 * j
        acc = Fraction(0)
        for beta in itertools.product(range(box + 1), repeat=n):
            a_beta = series.coeff(beta)
            c_beta = Fraction(0)
            for gamma in itertools.product(*(range(b + 1) for b in beta)):
                sgn = (-1) ** (sum(beta) - sum(gamma))
                w = 1
                for bi, gi in zip(beta, gamma):
                    w *= math.comb(bi, gi)
                c_beta += sgn * w * comb_int(norm_at(gamma), j)
            acc += c_beta * a_beta
        if acc:
            out[(j,)] = acc
    return TruncSeries((count - 1,), out)


# ---------------------------------------------------------------------------
# evaluation at p-adic arguments


def evaluate_at_s(
    components: dict[int, TruncSeries],
    p: int,
    M: int,
    s,
    twist: int = 0,
    count: int | None = None,
) -> PadicScalar:
    """Sum over unit residues b of w(b)^twist times the binomial series of
    the component measures at argument -s.

    The truncation after `count` binomial terms is rigorous to p^-count, so
    the effective precision is min(M, count)."""
    s = Fraction(s)
    if not is_p_integral(s, p):
        raise ValueError("s must be p-integral")
    if count is None:
        count = min(M, 1 + min(min(ser.caps) for ser in components.values()))
    J = count
    for b, ser in components.items():
        if ser.caps[0] < J - 1:
            raise PrecisionExhausted("component caps too small for requested count")
    mod = p ** M
    total = 0
    bin_s = [residue(c, p, M) for c in binomial_row(-s, J - 1)]
    for b in sorted(components):
        ser = components[b]
        wb = teichmuller(b, p, M)
        wb_inv = pow(wb, -1, mod)
        tw = pow(wb, twist % (p - 1), mod)
        # moments of t against the component, as residues
        tmom = []
        for l in range(J):
            ml = moment(ser, (l,))
            tmom.append(residue(ml, p, M))
        part = 0
        for j in range(J):
            # integral of (t * w(b)^{-1} - 1)^j
            inner = 0
            for l in range(j + 1):
                term = math.comb(j, l) * pow(wb_inv, l, mod) % mod * tmom[l] % mod
                if (j - l) % 2:
                    term = -term
                inner = (inner + term) % mod
            part = (part + bin_s[j] * inner) % mod
        total = (total + tw * part) % mod
    guard = max(0, M - J)
    return PadicScalar(p=p, M=M, guard=guard, residue=total % p ** (M - guard))


# ---------------------------------------------------------------------------
# cone functions


def amice_of_cone_function(
    f: TestFunction, kappa: ConeFunction, U: PLevelSet, caps: tuple[int, ...]
) -> TruncSeries:
    """Weighted sum of cone transforms; the constant part of the cone
    function has no convergent transform and is refused."""
    if kappa.constant != 0:
        raise ValueError("cone function has a nonzero constant part")
    total = TruncSeries(caps, {})
    for weight, cone in kappa.terms:
        pmeas = pseudo_from_cone(f, cone, U)
        total = total + amice_expand(pmeas, caps).scale(weight)
    return total


# ---------------------------------------------------------------------------
# the classical one-variable construction


@dataclass(frozen=True)
class KubotaLeopoldt:
    """Smoothed one-variable measure data for a prime p and smoothing ell."""

    p: int
    ell: int
    series: TruncSeries
    components: dict[int, TruncSeries] = field(compare=False)
    pseudo: PseudoMeasure = field(compare=False)

    def mass(self) -> Fraction:
        return Fraction(self.series.coeff((0,)))

    def moment(self, k: int) -> Fraction:
        return moment(self.series, (k,))

    def unit_moment(self, k: int) -> Fraction:
        total = Fraction(0)
        for b in sorted(self.components):
            total += moment(self.components[b], (k,))
        return total

    def value_at(self, s, twist: int = 0, M: int = 8, count: int | None = None) -> PadicScalar:
        return evaluate_at_s(self.components, self.p, M, s, twist, count)


def smoothing_function_1d(ell: int, away_from: int) -> TestFunction:
    f = zn_indicator(1) - lattice_indicator(((ell,),)).scale(ell)
    return TestFunction(1, f.terms, away_from=away_from)


def kubota_leopoldt(p: int, ell: int, caps: tuple[int, ...] = (8,)) -> KubotaLeopoldt:
    """Measure interpolating (1 - ell^(1+k)) zeta(-k); built from the ray
    cone with the ell-smoothed test function."""
    if ell % p == 0 or ell < 2:
        raise ValueError("smoothing modulus must be >= 2 and prime to p")
    f = smoothing_function_1d(ell, p)
    cone = OpenCone(((Fraction(1),),))
    U = PLevelSet(p, 0, 1, ((0,),))
    pmeas = pseudo_from_cone(f, cone, U)
    if not is_measure(f, cone, U):
        raise PoleDetected("smoothed test function failed the measure criterion")
    series = amice_expand(pmeas, caps)
    components = {}
    for b in range(1, p):
        Ub = PLevelSet(p, 1, 1, ((b,),))
        components[b] = amice_expand(pseudo_from_cone(f, cone, Ub), caps)
    return KubotaLeopoldt(p=p, ell=ell, series=series, components=components, pseudo=pmeas)
