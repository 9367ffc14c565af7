"""p-adic pseudo-measures attached to cones and their Amice transforms.

A pseudo-measure is stored as a finite exponential numerator over a
product of factors (1 - q^(a_i * d_i)).  When a vanishing criterion holds
the quotient is the transform of a genuine measure on Z_p^n and can be
expanded as a power series whose p-integral rational coefficients are the
Mahler coefficients of the measure.  Moments are then exact rationals:
by Mahler's theorem each is a sum of Mahler coefficients weighted by
Stirling numbers of the second kind (Mahler, J. reine angew. Math. 199,
1958; Colmez, Asterisque 330, 2010, section 1).  The pushforward along
a quadratic norm takes its Mahler coefficients from the same moments,
through the Stirling numbers of the first kind.

The measure criterion has two independent routes: line masses away from
p (`test_functions.vanishing_check`), and each PseudoMeasure's verdict on
the divisibility of its numerator, which amice_expand also enforces.

The expansion multiplies no full boxes: each unit factor is inverted in
its own variable and applied along that axis, every intermediate is cut
at total degree tcap, and binomial sums are integer numerators over one
denominator (the layout of FLINT's fmpq_poly, built by
`_linalg.common_denominator`), as are the coordinates and pieces they
start from, so no Fraction is built or hashed before the sums divide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from ._linalg import (
    Matrix,
    common_denominator,
    det,
    from_columns,
    integer_adjugate,
    integer_det,
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
    regularized and construction is refused.  numerator holds (v, c)
    pairs of Fractions, strictly sorted by v, and is stored as given.

    Computed once, on first use, in integers: the numerator's coordinates
    in the completed direction basis D, over one denominator Q; their
    p-fractional pieces, keyed by residue tuples; and the divisibility
    verdict on them.  is_measure reads the verdict as route B;
    amice_expand refuses by it and expands the same pieces."""

    p: int
    m: int
    n: int
    numerator: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    denoms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __post_init__(self):
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

    @cached_property
    def _coordinates(self):
        """D, Q, cden and per term the integers (c, N): c/cden is the
        coefficient and N/Q = D^-1 v, for the exponents v = u/q over one q,
        Q = q |det D| and N = sign(det D) adj(D) u = |det D| D^-1 u."""
        D = _complete_directions([d for _, d in self.denoms], self.n, self.p)
        _, Dz = common_denominator(D)
        dd = integer_det(Dz)
        adj = [[x if dd > 0 else -x for x in row] for row in integer_adjugate(Dz)]
        q, exps = common_denominator([e for e, _ in self.numerator])
        cden, (cnums,) = common_denominator([[c for _, c in self.numerator]])
        return D, q * abs(dd), cden, [
            (c, tuple(sum(a * x for a, x in zip(row, v)) for row in adj))
            for c, v in zip(cnums, exps)
        ]

    @cached_property
    def _pieces(self) -> dict:
        """Numerator terms (c, mu) by the residue tuple r = N Q'^-1 mod p^J,
        Q = p^J Q' with Q' prime to p: r/p^J is the p-fractional part w of
        N/Q and mu/Q = N/Q - w.  None, and no basis, if empty."""
        if not self.numerator:
            return {}
        _, Q, _, terms = self._coordinates
        pj = self.p ** vp_int(Q, self.p)
        unit = Q // pj
        inv = pow(unit, -1, pj)
        pieces: dict = {}
        for c, N in terms:
            r = tuple(x * inv % pj for x in N)
            pieces.setdefault(r, []).append((c, tuple(x - y * unit for x, y in zip(N, r))))
        return pieces

    @cached_property
    def _divisible(self) -> bool:
        """Whether each piece sum c * (1+T)^(mu/Q) is divisible by every
        T_i, i < r: at T_i = 0 the terms with equal mu off axis i cancel."""
        for terms in self._pieces.values():
            for i in range(self.r):
                rest: dict = {}
                for c, mu in terms:
                    key = mu[:i] + mu[i + 1 :]
                    rest[key] = rest.get(key, 0) + c
                if any(rest.values()):
                    return False
        return True


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
        numerator=tuple((tuple(Fraction(v, x[0]) for v in x[1:]), val) for x, _, val in pts),
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


# ---------------------------------------------------------------------------
# measure criterion, two independent routes


def is_measure(f: TestFunction, cone: OpenCone, pm: PseudoMeasure) -> bool:
    """Whether pm, the pseudo-measure of f on the cone (from
    `pseudo_from_cone`), is a genuine measure.

    Decided twice: once through the prime-to-p line-mass vanishing of f in
    the primitive generator directions, which reads only f and the cone,
    once through the divisibility verdict pm keeps for its numerator, the
    one amice_expand enforces.  The two verdicts are compared and a
    disagreement raises rather than picking a side."""
    route_a = all(
        vanishing_check(f, primitive_direction(g)) for g in cone.generators
    )
    route_b = pm._divisible
    if route_a != route_b:
        raise RouteDisagreement(
            f"direction-vanishing route says {route_a}, "
            f"coefficient-grouping route says {route_b}"
        )
    return route_b


# ---------------------------------------------------------------------------
# Amice expansion


def _piece_numerator(terms: list, den: int, cden: int, caps: tuple[int, ...], budget: int) -> dict:
    """Sum of c/cden * prod_j (1+T_j)^(a_j/den) over integer terms (c, a),
    truncated per variable to caps and by total degree to budget.

    Since C(a/den, k) = prod_{i<k} (a - i*den) / (den^k * k!), every
    exponent k collects one integer and is divided once, by
    cden * prod_j den^(k_j) * k_j!."""
    scale = [den ** k * math.factorial(k) for k in range(max(caps) + 1)]
    return {
        e: Fraction(v, cden * math.prod(scale[k] for k in e))
        for e, v in _falling_sums(terms, caps, budget, den).items()
        if v
    }


def _falling_sums(terms: list, caps: tuple[int, ...], budget: int, den: int) -> dict:
    """Sum of c * prod_j prod_{i<k_j} (a_j - i*den) over integer terms
    (c, a), for total degree <= budget.  Terms are grouped by their first
    a, so each group shares one falling-factorial row."""
    if not caps:
        return {(): sum(c for c, _ in terms)}
    groups: dict = {}
    for c, a in terms:
        groups.setdefault(a[0], []).append((c, a[1:]))
    out: dict = {}
    for a0, group in groups.items():
        row = [1]
        for i in range(caps[0]):
            if not row[-1]:
                break
            row.append(row[-1] * (a0 - i * den))
        for e, v in _falling_sums(group, caps[1:], budget, den).items():
            for k, y in enumerate(row[: budget - sum(e) + 1]):
                out[(k,) + e] = out.get((k,) + e, 0) + y * v
    return out


def _divide_by_t(coeffs: dict, r: int) -> dict:
    """Divide by T_1 * ... * T_r; the caller has checked divisibility."""
    return {tuple(x - 1 if i < r else x for i, x in enumerate(e)): c for e, c in coeffs.items()}


@lru_cache(maxsize=256)
def _unit_inverse_row(a: Fraction, tcap: int) -> tuple[int, tuple[int, ...]]:
    """Coefficients 0..tcap of the inverse of -sum_{j>=1} C(a, j) T^(j-1),
    as one row of integer numerators over one denominator.  Cached by
    value: the series and the components of one measure share a."""
    unit = {(j,): -c for j, c in enumerate(binomial_row(a, tcap + 1)[1:])}
    inv = TruncSeries((tcap,), unit).invert()
    den, (row,) = common_denominator([[inv.coeff((t,)) for t in range(tcap + 1)]])
    return den, tuple(row)


def _convolve_axis(coeffs: dict, i: int, row: Sequence[int], tcap: int) -> dict:
    """Multiply by sum_t row[t] T_i^t, a series in T_i alone.  Every
    exponent is nonnegative, so dropping total degree above tcap here loses
    nothing of what survives the final truncation."""
    out: dict = {}
    for e, c in coeffs.items():
        for t, b in enumerate(row[: tcap - sum(e) + 1]):
            key = e[:i] + (e[i] + t,) + e[i + 1 :]
            out[key] = out.get(key, 0) + c * b
    return out


def _in_powers_of_one_plus_t(coeffs: dict, n: int) -> dict:
    """Rewrite sum c_e T^e in powers of 1 + T, one axis at a time:
    T_i^t = sum_f C(t, f) (-1)^(t-f) (1+T_i)^f."""
    for i in range(n):
        out: dict = {}
        for e, c in coeffs.items():
            for f in range(e[i] + 1):
                key = e[:i] + (f,) + e[i + 1 :]
                out[key] = out.get(key, 0) + (-1) ** (e[i] - f) * math.comb(e[i], f) * c
        coeffs = out
    return {e: c for e, c in coeffs.items() if c}


def amice_expand(pm: PseudoMeasure, caps: tuple[int, ...]) -> TruncSeries:
    """Power-series transform of a pseudo-measure satisfying the measure
    criterion, with exact rational (p-integral) coefficients.

    caps are per-variable degree bounds in the standard coordinates S.
    A pseudo-measure that fails the criterion raises PoleDetected at any
    caps: the verdict is the one is_measure reads, taken on the numerator
    terms of the pieces, not on the truncation, which at small caps can
    miss the obstruction.  Each p-fractional piece w is expanded in
    T_i = prod_j (1+S_j)^(D_ji) - 1 and divided by each unit factor along
    its own axis, all cut at total degree tcap = sum(caps) since T^e has
    S-degree >= |e|; rewritten in powers of 1 + T, the piece times
    (1+S)^(D w) is a numerator sum with exponents D (f + w)."""
    if len(caps) != pm.n:
        raise ValueError("caps dimension mismatch")
    if not pm.numerator:
        return TruncSeries(caps, {})
    if not pm._divisible:
        raise PoleDetected("transform numerator is not divisible by its denominator support")
    D, Q, cden, _ = pm._coordinates
    r, n = pm.r, pm.n
    tcap = sum(caps)
    build_caps = tuple(tcap + 1 if i < r else tcap for i in range(n))
    pj = pm.p ** vp_int(Q, pm.p)

    inverse_rows = [_unit_inverse_row(a, tcap) for a, _ in pm.denoms]
    Dint = [[int(x) for x in row] for row in D]
    total: dict = {}
    for res, piece in sorted(pm._pieces.items()):
        G = _divide_by_t(_piece_numerator(piece, Q, cden, build_caps, tcap + r), r)
        den, (nums,) = common_denominator([list(G.values())])
        G = dict(zip(G, nums))
        for i, (h, row) in enumerate(inverse_rows):
            G = _convolve_axis(G, i, row, tcap)
            den *= h
        dw, off = zip(*(divmod(sum(d * x for d, x in zip(dr, res)), pj) for dr in Dint))
        if any(off):  # the offset D w = D r / p^J
            raise ArithmeticError("piece offset is not p-integral")
        terms = [
            (c, [x + sum(d * k for d, k in zip(dr, f)) for x, dr in zip(dw, Dint)])
            for f, c in _in_powers_of_one_plus_t(G, n).items()
        ]
        for e, c in _piece_numerator(terms, 1, den, caps, tcap).items():
            total[e] = total.get(e, 0) + c
    return TruncSeries(caps, total)


# ---------------------------------------------------------------------------
# moments


def _stirling_rows(count: int):
    """Rows b! * S(a, b) for b = 0..a, a = 0..count-1, each from the one
    before by S(a+1, b) = b S(a, b) + S(a, b-1)."""
    row = [1]
    for _ in range(count):
        yield row
        row = row + [0]
        row = [0] + [b * (row[b - 1] + row[b]) for b in range(1, len(row))]


def moment(series: TruncSeries, alpha: tuple[int, ...]) -> Fraction:
    """Integral of x^alpha: the Mahler coefficients a_beta weighted by
    prod_j beta_j! S(alpha_j, beta_j), by Mahler's theorem.  Exact when
    alpha fits under the caps."""
    if any(a > cap for a, cap in zip(alpha, series.caps)):
        raise OutOfCaps(f"moment index {alpha} beyond caps {series.caps}")
    rows = [list(_stirling_rows(a + 1))[-1] for a in alpha]
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

    Mahler coefficient j of the image is the integral of C(N, j), that is
    sum_i s(j, i) * integral(N^i) / j! with s(j, i) the Stirling numbers of
    the first kind.  N is quadratic, so N^i fits under caps 2i and each
    integral is exact as long as 2(count - 1) fits under every cap."""
    need = 2 * (count - 1)
    if any(cap < need for cap in series.caps):
        raise PrecisionExhausted(f"pushforward needs caps >= {need}, have {series.caps}")
    if any(Fraction(c).denominator != 1 for c in norm_poly.values()):
        raise ValueError("norm polynomial must have integer coefficients")
    caps = (need,) * len(series.caps)
    norm = TruncSeries(caps, {e: Fraction(c) for e, c in norm_poly.items()})
    power = TruncSeries.constant(caps, Fraction(1))
    moments = [polynomial_moment(series, power.coeffs)]
    for _ in range(count - 1):
        power = power * norm
        moments.append(polynomial_moment(series, power.coeffs))
    out = {}
    falling = [1]  # s(j, 0..j): coefficients of x(x-1)...(x-j+1)
    for j in range(count):
        acc = Fraction(sum(s * m for s, m in zip(falling, moments)), math.factorial(j))
        if acc:
            out[(j,)] = acc
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
    return TruncSeries((count - 1,), out)


# ---------------------------------------------------------------------------
# evaluation at p-adic arguments


@lru_cache(maxsize=256)
def _component_rows(coeffs: tuple, b: int, p: int, M: int) -> tuple[int, tuple[int, ...]]:
    """w(b) and the row inner[j], j < J, of integrals of (t w(b)^-1 - 1)^j
    mod p^M against the component whose first J Mahler coefficients are
    coeffs.  Free of s and the twist, so cached by value across both."""
    mod = p ** M
    wb = teichmuller(b, p, M)
    wb_inv = pow(wb, -1, mod)
    # moments 0..J-1 of t against the component, as residues, from
    # successive Stirling rows (the sum in moment, one row at a time)
    tmom = [
        residue(sum(w * c for w, c in zip(row, coeffs)), p, M)
        for row in _stirling_rows(len(coeffs))
    ]
    return wb, tuple(
        sum((-1) ** (j - l) * math.comb(j, l) * pow(wb_inv, l, mod) * tmom[l] for l in range(j + 1))
        % mod
        for j in range(len(coeffs))
    )


def evaluate_at_s(
    components: dict[int, TruncSeries],
    p: int,
    M: int,
    s,
    twist: int = 0,
    count: int | None = None,
) -> PadicScalar:
    """Sum over unit residues b of w(b)^twist times the binomial series of
    the component measures at argument -s: sum_j C(-s, j) inner_b[j].

    The rows w(b) and inner_b depend on neither s nor the twist; they are
    built once per component (`_component_rows`) and reused across both.
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
        wb, inner = _component_rows(tuple(ser.coeff((j,)) for j in range(J)), b, p, M)
        part = sum(x * y for x, y in zip(bin_s, inner))
        total = (total + pow(wb, twist % (p - 1), mod) * part) % mod
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
    if not is_measure(f, cone, pmeas):
        raise PoleDetected("smoothed test function failed the measure criterion")
    series = amice_expand(pmeas, caps)
    components = {}
    for b in range(1, p):
        Ub = PLevelSet(p, 1, 1, ((b,),))
        components[b] = amice_expand(pseudo_from_cone(f, cone, Ub), caps)
    return KubotaLeopoldt(p=p, ell=ell, series=series, components=components, pseudo=pmeas)
