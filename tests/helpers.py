"""Reference routines used only by the test suite.

Each one answers a question the package itself never asks on any path
(membership, traces, translates, congruences), so it lives here rather
than in ``src/``.  ``span_coordinates`` solves for span coordinates by its
own rational reduction of [G | v], independently of the integer HNF of
``_linalg.span_rows`` behind cone membership and the parallelepiped
points (tests/test_route_independence.py keeps its ``_linalg`` imports
rational); ``support_by_box`` finds the support points of a half-open
parallelepiped by scanning a grid with it, the brute-force count behind
``test_functions.parallelepiped_support``.
``bernoulli_sums_reference`` is the ``Fraction`` loop over the
Bernoulli-polynomial moments that ``shintani_zeta._bernoulli_sums`` runs
in integers over one denominator.  ``closed_form_reference`` is Shintani's
closed form for one slice and one k on reduced ``QuadScalar``s and
``Fraction``s, with power tables rebuilt for every k, against the integer
tables that ``shintani_zeta._closed_form_coefficient`` builds once per
cone for every k.  ``theta_moment`` takes moments by
the theta operator, independently of the Stirling-number sum in
``padic_measures.moment``.  ``amice_reference`` expands a pseudo-measure
by full-box series products: the numerator in ``Fraction`` binomial rows,
one product by the inverse of all unit factors over the whole (tcap+1)^n
box, and a table of substituted monomials, with its numerator points
mapped through a ``Fraction`` D^-1 by ``_numerator_coordinates`` and
split by its own ``Fraction`` p-fractional part ``_pfrac``; it checks the
axis-wise, integer-numerator route of ``padic_measures.amice_expand``,
its integer-adjugate coordinates and its integer residue-tuple pieces.
``generator_by_box``, ``pell_unit_by_scan``, ``euler_phi_by_count`` and
``unit_order_by_walk`` are the brute-force searches and loops that
``real_quadratic_fields`` replaced by the reduced-ideal cycle and by
closed forms; they check it.  ``is_equivalent_by_scan`` walks the unit
multiples of one generator through twice the unit period, against the
unit-image lookup of ``real_quadratic_fields.is_equivalent``, and
``pushforward_by_newton_box`` sums the Newton expansion of C(N(x), j) over
the box, against the Stirling-number moments of
``padic_measures.pushforward_norm``.  ``evaluate_at_s_reference`` is the
per-s loop that ``padic_measures.evaluate_at_s`` replaced by rows built
once per component, with its own Teichmuller lift and Stirling rows.
``domain_from_cocycle`` reads the Shintani domain off Hill's cocycle at
(1, eps), the paper's construction, and checks it on sample points; it is
the reference for the ``shintani_fan`` that both sides of
``real_quadratic_fields`` use.  ``translate_fan`` is the fan of a ray unit
eps_plus^t as the t translates of that cone, each with its ray: the
reference for ``real_quadratic_fields._fold``, which sums t unit
pullbacks of the test function over the one cone instead.
``PairQuadScalar`` and ``pair_quad_sign`` are the quadratic scalar as a
pair of ``Fraction`` coordinates, the reference for the integer
(A + B*sqrt(D))/q representation of ``exact_core.QuadScalar``.
"""

import itertools
import math
from fractions import Fraction
from random import Random
from typing import Sequence

from shintani_kit._linalg import Matrix, Vector, _rref, identity, inverse, mat_vec, vec
from shintani_kit._rational_padics import is_p_integral, residue
from shintani_kit.cones import ConeFunction, GLTuple, OpenCone, hill_cone_function
from shintani_kit.errors import (
    ClassSearchExhausted,
    GuardTripped,
    NotAwayFromP,
    PoleDetected,
    PrecisionExhausted,
    SingularMatrix,
)
from shintani_kit.exact_core import QuadScalar, Rational, TruncSeries, bernoulli_number, quad_sign
from shintani_kit.padic_measures import (
    PadicScalar,
    PseudoMeasure,
    _complete_directions,
    binomial_row,
)
from shintani_kit.real_quadratic_fields import (
    IdealHNF,
    RealQuadraticField,
    _generator_of,
    eps_plus,
    fundamental_unit,
    unit_order_mod,
)
from shintani_kit.test_functions import LatticeTerm, PLevelSet, TestFunction


def span_coordinates(gens, v) -> Vector | None:
    """Coordinates c with sum(c_j * gens_j) = v, or None when v lies off
    the span.  One reduction of [G | v] with G the generator columns;
    dependent generators raise SingularMatrix."""
    r = len(gens)
    v = vec(v)
    aug = [[Fraction(g[i]) for g in gens] + [v[i]] for i in range(len(v))]
    if len(_rref(aug, r)) < r:
        raise SingularMatrix("generators are linearly dependent")
    if any(row[r] for row in aug[r:]):
        return None
    return tuple(row[r] for row in aug[:r])


def support_by_box(f: TestFunction, gens, limit: int = 1500) -> dict | None:
    """{x: f(x)} for the support points of f in {sum t_j g_j : 0 < t_j <= 1},
    by scanning the grid of the common denominator of f's offsets and
    lattices over the parallelepiped's bounding box; None when the grid
    holds more than `limit` points."""
    n = f.n
    den = math.lcm(
        *(x.denominator for t in f.terms for row in t.lattice for x in row),
        *(x.denominator for t in f.terms for x in t.offset),
    )
    lo = [sum(min(0, g[i]) for g in gens) for i in range(n)]
    hi = [sum(max(0, g[i]) for g in gens) for i in range(n)]
    axes = [
        [Fraction(a, den) for a in range(math.floor(l * den), math.ceil(h * den) + 1)]
        for l, h in zip(lo, hi)
    ]
    if math.prod(len(a) for a in axes) > limit:
        return None
    found = {}
    for x in itertools.product(*axes):
        t = span_coordinates(gens, x)
        if t is None or not all(0 < c <= 1 for c in t):
            continue
        val = f.evaluate(x)
        if val:
            found[x] = val
    return found


def bernoulli_sums_reference(points, r: int, Ns) -> dict:
    """sum_x f(x) prod_j B_{mu_j}(t_j) for every mu with |mu| in Ns, from
    the integer triples (x, (q, *T), f(x)) of parallelepiped_support: the
    expansion B_m(t) = sum_a C(m, a) B_{m-a} t^a with every moment, row
    entry and product a Fraction."""
    N = max(Ns)
    ts = [tuple(Fraction(T, t[0]) for T in t[1:]) for _, t, _ in points]
    vals = [val for _, _, val in points]
    moment = {
        alpha: sum(
            (v * math.prod(tj ** a for tj, a in zip(t, alpha)) for t, v in zip(ts, vals)),
            Fraction(0),
        )
        for alpha in itertools.product(range(N + 1), repeat=r)
        if sum(alpha) <= N
    }
    B = [bernoulli_number(m) for m in range(N + 1)]
    row = [[math.comb(m, a) * B[m - a] for a in range(m + 1)] for m in range(N + 1)]
    out = {}
    for mu in itertools.product(range(N + 1), repeat=r):
        if sum(mu) not in Ns:
            continue
        acc = Fraction(0)
        for alpha in itertools.product(*(range(m + 1) for m in mu)):
            c = moment[alpha]
            for m, a in zip(mu, alpha):
                c *= row[m][a]
            acc += c
        out[mu] = acc
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


def closed_form_reference(G, i: int, k: int, S: dict):
    """C_i(k) = sum_mu S[mu] / prod mu_j! * [y^(k..k)] prod lambda_j^(mu_j - 1)
    for one k, with S[mu] a Fraction: lambda_j = a_j + sum_m b_jm y_m with
    a_j = L_i(w_j), and the y^beta coefficient of lambda^e is
    e(e-1)...(e-|beta|+1) / prod beta_m! * a^(e-|beta|) * prod b_m^beta_m,
    every coefficient a reduced QuadScalar or Fraction from power tables
    built for this k alone."""
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
                c = a_pow[e - s] * Fraction(falling, math.prod(math.factorial(b) for b in beta))
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
    for mu in itertools.product(range(N + 1), repeat=r):
        if sum(mu) != N:
            continue
        poly = {(0,) * (n - 1): Fraction(1)}
        for by_e, m in zip(lam, mu):
            poly = product(poly, by_e[m - 1])
        coeff = poly.get(target)
        if coeff:
            total = total + coeff * S[mu] / math.prod(math.factorial(m) for m in mu)
    return total


def ideal_contains(ideal: IdealHNF, v) -> bool:
    """Whether v = (x, y), meaning x + y*omega, lies in the ideal."""
    y = Fraction(v[1])
    t = y / ideal.d
    if t.denominator != 1:
        return False
    x = Fraction(v[0]) - t * ideal.b
    return (x / ideal.a).denominator == 1


def field_trace(field: RealQuadraticField, u):
    """Trace of u = (x, y), meaning x + y*omega."""
    x, y = u
    return 2 * x + field.omega_trace * y


def translate(f: TestFunction, u) -> TestFunction:
    """The function v -> f(v - u); the certification is dropped when the
    shifted offsets are no longer p-integral."""
    u = vec(u)
    terms = [
        LatticeTerm(t.coeff, tuple(a + b for a, b in zip(t.offset, u)), t.lattice)
        for t in f.terms
    ]
    try:
        return TestFunction(f.n, tuple(terms), f.away_from)
    except NotAwayFromP:
        return TestFunction(f.n, tuple(terms), None)


def congruent_to(value: PadicScalar, x) -> bool:
    """Whether x matches the p-adic value at its known precision."""
    x = Fraction(x)
    if x.denominator % value.p == 0:
        return False
    return (x.numerator * pow(x.denominator, -1, value.modulus) - value.residue) % value.modulus == 0


def level_set_contains(level: PLevelSet, v) -> bool:
    """Whether v lies in the union of cosets a + p^m Z_p^n."""
    v = vec(v)
    if len(v) != level.n:
        raise ValueError("dimension mismatch")
    if any(not is_p_integral(c, level.p) for c in v):
        return False
    if level.m == 0:
        return True
    res = tuple(residue(c, level.p, level.m) for c in v)
    return res in set(level.offsets)


def _theta(series: TruncSeries, j: int) -> TruncSeries:
    """(1+S_j) d/dS_j: coefficient beta picks up beta_j * old[beta] plus
    (beta_j + 1) * old[beta + e_j]."""
    nxt: dict = {}
    for e, c in series.coeffs.items():
        if not e[j]:
            continue
        w = e[j] * c
        nxt[e] = nxt.get(e, Fraction(0)) + w
        down = tuple(x - (1 if jj == j else 0) for jj, x in enumerate(e))
        nxt[down] = nxt.get(down, Fraction(0)) + w
    return TruncSeries(series.caps, nxt)


def theta_moment(series: TruncSeries, alpha) -> Fraction:
    """Integral of x^alpha: constant term after applying the theta
    operators alpha_j times each."""
    cur = series
    for j, aj in enumerate(alpha):
        for _ in range(aj):
            cur = _theta(cur, j)
    return Fraction(cur.coeff(tuple(0 for _ in series.caps)))


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


def _numerator_coordinates(pm: PseudoMeasure):
    """(coefficient, D^{-1} exponent) pairs plus the completed matrix D."""
    D = _complete_directions([d for _, d in pm.denoms], pm.n, pm.p)
    Dinv = inverse(D)
    monos = [(c, mat_vec(Dinv, e)) for e, c in pm.numerator]
    return D, monos


def _pfrac(x: Fraction, p: int) -> Fraction:
    """Canonical representative of x modulo the p-integral rationals: with
    p^j the p-part of its denominator, (x p^j mod p^j) / p^j."""
    pj = 1
    while x.denominator % (pj * p) == 0:
        pj *= p
    y = x * pj
    return Fraction(y.numerator * pow(y.denominator, -1, pj) % pj, pj)


def _piece_vanishes_on_axes(terms: list[tuple[Fraction, Vector]], r: int) -> bool:
    """Whether sum c * (1+T)^mu is divisible by each T_i, i < r: setting
    T_i = 0 drops coordinate i of every mu, and the terms left must cancel."""
    for i in range(r):
        rest: dict = {}
        for c, mu in terms:
            key = tuple(mu[:i]) + tuple(mu[i + 1 :])
            rest[key] = rest.get(key, 0) + c
        if any(rest.values()):
            return False
    return True


def amice_reference(pm: PseudoMeasure, caps: tuple[int, ...]) -> TruncSeries:
    """Power-series transform of a pseudo-measure satisfying the measure
    criterion, with exact rational (p-integral) coefficients.

    caps are per-variable degree bounds in the standard coordinates; a
    piece not divisible by every T_i raises PoleDetected at any caps (see
    ``_piece_vanishes_on_axes``), and the visible truncation is checked
    again before dividing."""
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
        if not _piece_vanishes_on_axes(terms, r):
            raise PoleDetected("transform numerator is not divisible by its denominator support")
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


# largest box generator_by_box scans
GENERATOR_BOX_GUARD = 400_000


def _eps_real_bound(field: RealQuadraticField) -> int:
    # integer upper bound for the larger embedding of eps_plus
    x, y = eps_plus(field)
    if field.half_basis:
        wc = (1 + math.isqrt(field.D)) // 2 + 1
    else:
        wc = math.isqrt(field.D) + 1
    return abs(x) + abs(y) * wc + 1


def generator_by_box(field: RealQuadraticField, ideal: IdealHNF):
    """A generator of the ideal, or None if it is not principal.

    Some unit multiple of any generator has both embeddings at most
    sqrt(norm * eps_plus) in absolute value, so the scan over the box below
    is complete and a miss is a proof.
    """
    n = ideal.norm
    B = 2 * math.isqrt(n * _eps_real_bound(field)) + 2
    if (2 * B + 1) ** 2 > GENERATOR_BOX_GUARD:
        raise ClassSearchExhausted("generator box exceeds the search guard")
    a, b, d = ideal.a, ideal.b, ideal.d
    for y in range(-B, B + 1):
        if y % d:
            continue
        r = ((y // d) * b) % a
        x = -B + ((r + B) % a)
        while x <= B:
            if (x or y) and abs(field.norm((x, y))) == n:
                return (x, y)
            x += a
    return None


def pell_unit_by_scan(field: RealQuadraticField, y_bound: int):
    """The smallest unit greater than 1, by ascending second coordinate
    below y_bound, or None if there is none there.

    For the half-integral basis the norm equation is (2x+y)^2 - D y^2 = +-4,
    otherwise the Pell equation x^2 - D y^2 = +-1.
    """
    one = QuadScalar(1, 0, field.D)
    for y in range(1, y_bound):
        best = None
        deltas = (4, -4) if field.half_basis else (1, -1)
        for delta in deltas:
            z2 = field.D * y * y + delta
            if z2 <= 0:
                continue
            z = math.isqrt(z2)
            if z * z != z2:
                continue
            for zz in (z, -z):
                if field.half_basis:
                    if (zz - y) % 2:
                        continue
                    x = (zz - y) // 2
                else:
                    x = zz
                u = (x, y)
                if abs(field.norm(u)) != 1:
                    continue
                if quad_sign(field.to_quad(u) - one) <= 0:
                    continue
                if best is None or quad_sign(
                    field.to_quad(best) - field.to_quad(u)
                ) > 0:
                    best = u
        if best is not None:
            return best
    return None


def euler_phi_by_count(field: RealQuadraticField, modulus: int) -> int:
    """Order of (O / modulus O)^*, by counting residues of unit norm."""
    count = 0
    for x in range(modulus):
        for y in range(modulus):
            if math.gcd(field.norm((x, y)), modulus) == 1:
                count += 1
    return count if modulus > 1 else 1


def unit_order_by_walk(field: RealQuadraticField, u, modulus: int) -> int:
    """Multiplicative order of the unit u in (O / modulus O)^*, by walking
    its powers."""
    if modulus <= 1:
        return 1
    target = (1 % modulus, 0)
    cur = (u[0] % modulus, u[1] % modulus)
    t = 1
    guard = 4 * modulus * modulus + 64
    while cur != target:
        cur = tuple(c % modulus for c in field.mul(cur, u))
        t += 1
        if t > guard:
            raise GuardTripped("unit order exceeds the group-size guard")
    return t


def is_equivalent_by_scan(
    field: RealQuadraticField,
    I: IdealHNF,
    J: IdealHNF,
    modulus: int = 1,
    narrow: bool = True,
) -> bool:
    """Whether I and J agree in the ray class group mod (modulus), with
    totally positive generators when narrow is set.

    I ~ J iff I * conj(J) has a generator g that is totally positive and
    congruent to norm(J) mod (modulus); all generators are +-u0^j * g0, and
    their sign patterns and residues repeat with period twice the order of
    u0 mod (modulus), so the scan is complete.
    """
    g0 = _generator_of(field, I * J.conjugate())
    if g0 is None:
        return False
    if not narrow and modulus == 1:
        return True
    Q = modulus
    u0 = fundamental_unit(field)
    su = field.sign_pair(u0)
    sg = field.sign_pair(g0)
    period = 2 * (unit_order_mod(field, u0, Q) if Q > 1 else 1)
    target = (J.norm % Q, 0) if Q > 1 else None
    cur = (1 % Q, 0) if Q > 1 else (1, 0)
    g0m = (g0[0] % Q, g0[1] % Q) if Q > 1 else g0
    cs = (1, 1)
    for _ in range(period):
        for sgn in (1, -1):
            signs = (sgn * cs[0] * sg[0], sgn * cs[1] * sg[1])
            if narrow and signs != (1, 1):
                continue
            if Q == 1:
                return True
            v = field.mul(cur, g0m)
            if ((sgn * v[0]) % Q, (sgn * v[1]) % Q) == target:
                return True
        if Q > 1:
            cur = tuple(c % Q for c in field.mul(cur, u0))
        cs = (cs[0] * su[0], cs[1] * su[1])
    return False


def comb_int(z: int, j: int) -> int:
    """Binomial coefficient C(z, j) for any integer z, j >= 0."""
    if j < 0:
        raise ValueError("negative lower index")
    if z >= 0:
        return math.comb(z, j)
    return (-1) ** j * math.comb(j - z - 1, j)


def pushforward_by_newton_box(series: TruncSeries, norm_poly: dict, count: int) -> TruncSeries:
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


def _stirling_row_by_sum(a: int) -> list[int]:
    """b! S(a, b) for b = 0..a, the surjections of an a-set onto a b-set,
    by inclusion-exclusion."""
    return [
        sum((-1) ** (b - i) * math.comb(b, i) * i ** a for i in range(b + 1))
        for b in range(a + 1)
    ]


def evaluate_at_s_reference(components: dict, p: int, M: int, s, twist: int = 0,
                            count: int | None = None) -> PadicScalar:
    """The per-s loop of ``padic_measures.evaluate_at_s``: for each s, each
    component's moments and its integrals of (t w(b)^-1 - 1)^j are taken
    anew, with the Teichmuller lift b^(p^(M-1)) mod p^M and Stirling rows
    by inclusion-exclusion; of the package it shares only binomial_row,
    for the C(-s, j)."""
    s = Fraction(s)
    if not is_p_integral(s, p):
        raise ValueError("s must be p-integral")
    if count is None:
        count = min(M, 1 + min(min(ser.caps) for ser in components.values()))
    if any(ser.caps[0] < count - 1 for ser in components.values()):
        raise PrecisionExhausted("component caps too small for requested count")
    mod = p ** M
    bin_s = [residue(c, p, M) for c in binomial_row(-s, count - 1)]
    total = 0
    for b in sorted(components):
        ser = components[b]
        wb = pow(b, p ** (M - 1), mod)
        wb_inv = pow(wb, -1, mod)
        tmom = [
            residue(sum(w * ser.coeff((e,)) for e, w in enumerate(_stirling_row_by_sum(a))), p, M)
            for a in range(count)
        ]
        part = 0
        for j in range(count):
            inner = 0
            for l in range(j + 1):
                term = math.comb(j, l) * pow(wb_inv, l, mod) * tmom[l]
                inner += -term if (j - l) % 2 else term
            part += bin_s[j] * inner
        total += pow(wb, twist % (p - 1), mod) * part
    guard = max(0, M - count)
    return PadicScalar(p=p, M=M, guard=guard, residue=total % p ** (M - guard))


# interior points on which domain_from_cocycle checks the cocycle fan
DOMAIN_CHECK_SAMPLES = 24


def domain_from_cocycle(field: RealQuadraticField, eps) -> ConeFunction:
    """Shintani domain read off the perturbed cocycle at (1, mult-by-eps).

    The output is normalized to weight +1 and cross-checked pointwise
    against the geometric domain on interior sample points; the
    one-dimensional ray may lawfully sit on either edge of the cone, which
    changes nothing downstream because eps has norm one.
    """
    if field.norm(eps) != 1 or field.sign_pair(eps) != (1, 1):
        raise ValueError("eps must be a totally positive unit")
    kappa = hill_cone_function(GLTuple((identity(2), field.mult_matrix(eps))))
    two = [t for t in kappa.terms if t[1].dim == 2]
    one = [t for t in kappa.terms if t[1].dim == 1]
    if len(two) != 1 or len(one) != 1 or len(kappa.terms) != 2:
        raise AssertionError("unexpected cone pattern from the cocycle")
    w = two[0][0]
    if w not in (1, -1) or one[0][0] != w:
        raise AssertionError("unexpected weight pattern from the cocycle")
    fan = ConeFunction([(Fraction(1), two[0][1]), (Fraction(1), one[0][1])])
    meps = field.mult_matrix(eps)
    rng = Random(11213)
    for _ in range(DOMAIN_CHECK_SAMPLES):
        t1 = Fraction(rng.randrange(1, 400), rng.randrange(1, 97))
        t2 = Fraction(rng.randrange(1, 400), rng.randrange(1, 97))
        v = (t1 + t2 * eps[0], t2 * eps[1])
        if fan.evaluate(v) != 1:
            raise AssertionError("cocycle domain disagrees inside the cone")
        if fan.evaluate(mat_vec(meps, v)) != 0:
            raise AssertionError("cocycle domain meets its eps-translate")
    return fan


def translate_fan(field: RealQuadraticField, t: int) -> ConeFunction:
    """The open cone on (1, eps_plus^t) plus the ray through 1, cut into
    t translates: for each u = eps_plus^j, j < t, the open cone on
    (u, u*eps_plus) and the ray through u."""
    base, u, terms = eps_plus(field), (1, 0), []
    for _ in range(t):
        nxt = field.mul(u, base)
        terms += [(Fraction(1), OpenCone((u, nxt))), (Fraction(1), OpenCone((u,)))]
        u = nxt
    return ConeFunction(terms)


# ---------------------------------------------------------------------------
# the quadratic scalar as two Fraction coordinates, the reference for
# exact_core.QuadScalar


def _fraction_sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class PairQuadScalar:
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

    def _coerce(self, other) -> "PairQuadScalar":
        if isinstance(other, PairQuadScalar):
            if other.D != self.D and other.b != 0 and self.b != 0:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return PairQuadScalar(other, 0, self.D)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PairQuadScalar(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return PairQuadScalar(-self.a, -self.b, self.D)

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
        return PairQuadScalar(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "PairQuadScalar":
        n = self.a * self.a - self.b * self.b * self.D
        if n == 0:
            raise ZeroDivisionError("zero element")
        return PairQuadScalar(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self) -> "PairQuadScalar":
        return PairQuadScalar(self.a, -self.b, self.D)

    # -- structure --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, PairQuadScalar):
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
        return f"PairQuadScalar({self.a}, {self.b}, sqrt{self.D})"

    def rational_part(self) -> Fraction:
        return self.a


def pair_quad_sign(x) -> int:
    """Exact sign of a + b*sqrt(D) in {-1, 0, +1}.

    Decided by rational case analysis only: when a and b have opposite
    signs the comparison reduces to a^2 versus b^2 * D.  Equality of
    those squares is impossible for b != 0 since D is not a square.
    """
    if isinstance(x, (int, Fraction)):
        return _fraction_sign(Fraction(x))
    a, b, D = x.a, x.b, x.D
    if b == 0:
        return _fraction_sign(a)
    if a == 0:
        return _fraction_sign(b)
    sa, sb = _fraction_sign(a), _fraction_sign(b)
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
