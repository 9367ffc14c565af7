"""Built-in verification suite behind the `selftest` subcommand.

Every check re-derives a known value or invariant from scratch and reports
a verdict instead of raising, so a broken build produces a readable failure
table.  The quick tier is a smoke test of each module; the full tier adds
the randomized cross-route and interpolation sweeps; the acceptance gate
runs the same checks with its own sizes, seeds and oracles.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from fractions import Fraction
from itertools import islice
from math import isqrt

from . import exact_core
from ._linalg import det, from_columns, identity, mat, mat_vec, rank
from ._rational_padics import is_p_integral, residue
from .cones import GLTuple, OpenCone, cocycle_defect, hill_cone_function, hill_eval
from .errors import DegenerateTuple
from .exact_core import bernoulli_number, bernoulli_polynomial, hurwitz_value
from .padic_measures import is_measure, kubota_leopoldt, moment, pseudo_from_cone
from .real_quadratic_fields import (
    RealQuadraticField, eps_plus, exact_ray_class_zeta, field_zeta_value, h_plus_count,
    narrow_ray_class_reps, o_ideal, padic_partial_zeta, prime_above, shintani_fan,
    smoothed_class_series,
)
from .shintani_zeta import _special_value_series, quadratic_norm, special_value
from .test_functions import PLevelSet, TestFunction, lattice_indicator, tensor_at_p, zn_indicator


def tamper_bernoulli() -> None:
    """Corrupt a cached Bernoulli number.  CI canary: a selftest run after
    this call must fail, proving the checks read live values."""
    bernoulli_number(12)
    exact_core._BERNOULLI_CACHE[12] += 1


def _ray_function(a: int, f: int) -> TestFunction:
    return lattice_indicator(((f,),), offset=(a,))


_RAY = OpenCone(((1,),))


# ---------------------------------------------------------------------------
# individual checks; each returns (ok, detail)


def check_bernoulli_constants():
    ok = (
        bernoulli_number(2) == Fraction(1, 6)
        and bernoulli_number(12) == Fraction(-691, 2730)
        and all(bernoulli_number(j) == 0 for j in (3, 5, 7, 9, 11))
        and bernoulli_polynomial(4, Fraction(4)) - bernoulli_polynomial(4, Fraction(3))
        == 4 * 3**3
    )
    return ok, "B_12 = -691/2730, odd vanishing, difference equation"


def _at(ks):
    """The points -k of ks, as a..b for a run of three or more."""
    ks = list(ks)
    run = len(ks) > 2 and ks == list(range(ks[0], ks[-1] + 1))
    return f"{-ks[0]}..{-ks[-1]}" if run else ", ".join(str(-k) for k in ks)


def check_riemann_values(ks=range(4)):
    want = {0: Fraction(-1, 2), 1: Fraction(-1, 12), 2: Fraction(0), 3: Fraction(1, 120)}
    got = special_value(_ray_function(1, 1), _RAY, ks)
    return got == [want[k] for k in ks], f"zeta({_at(ks)}) = {[str(v) for v in got]}"


def check_hurwitz_sweep(top=4, oracle=hurwitz_value):
    # a missing value counts as a mismatch
    bad = 0
    for f in range(1, top + 1):
        for a in range(1, f + 1):
            got = special_value(_ray_function(a, f), _RAY, range(top))
            bad += sum(v != oracle(a, f, k) for k, v in enumerate(got)) + top - len(got)
    return bad == 0, f"{bad} mismatches over a <= f <= {top}, k <= {top - 1}"


def check_zeta_two_route():
    # the series route reads no Bernoulli numbers, so a corrupted cache
    # shows up here; the 1-D case at k = 11 reaches B_12
    F = Fraction
    plane = lattice_indicator(((2, 1), (0, 3)), offset=(F(1, 2), F(1, 3)))
    cases = [(_ray_function(1, 3), _RAY, None, True, [11])]
    cases.append((plane, OpenCone(((2, 1), (1, 3))), None, True, range(3)))
    cases += [
        (zn_indicator(2), OpenCone(((1, 0), (2, 1))), quadratic_norm(5), shortcut, range(2))
        for shortcut in (True, False)
    ]
    for f, cone, ns, shortcut, ks in cases:
        fast = special_value(f, cone, ks, ns, shortcut)
        slow = _special_value_series(f, cone, ks, ns, shortcut)
        for k, a, b in zip(ks, fast, slow):
            if a != b:
                return False, f"k={k}: closed form {a} vs series {b}"
    return True, f"{sum(len(ks) for *_, ks in cases)} cone values, closed form = series route"


def _rand_gl(rng, n):
    while True:
        m = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        if det(mat(m)) != 0:
            return mat(m)


def _rand_tuple(rng, n):
    while True:
        mats = tuple(_rand_gl(rng, n) for _ in range(n))
        u = [mat_vec(m, [1] + [0] * (n - 1)) for m in mats]
        if rank(from_columns(u)) == n:
            return GLTuple(mats)


def _nonzero(count, n, entry):
    """The first count nonzero vectors of n successive entry() draws."""
    return list(islice(filter(any, iter(lambda: [entry() for _ in range(n)], None)), count))


def check_hill_pointwise(rng, tuples, points, dims=(2,)):
    """Extraction against direct evaluation at nonzero points, then the
    sandwich: one unit value inside the cone on the first columns, 0 off it."""
    for n in dims:
        for _ in range(tuples):
            t = _rand_tuple(rng, n)
            cf = hill_cone_function(t)
            for v in _nonzero(points, n, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3))):
                if cf.evaluate(v) != hill_eval(t, v):
                    return False, f"extraction disagrees with direct evaluation at {v}"
            first = from_columns([mat_vec(m, [1] + [0] * (n - 1)) for m in t.matrices])
            inside, outside = set(), set()
            for _ in range(20):
                c = [Fraction(rng.randrange(1, 9)) for _ in range(n)]
                inside.add(hill_eval(t, mat_vec(first, c)))
                c[rng.randrange(n)] *= -1
                outside.add(hill_eval(t, mat_vec(first, c)))
            if len(inside) != 1 or abs(inside.pop()) != 1 or outside != {0}:
                return False, f"sandwich fails for {t.matrices}"
    return True, f"{tuples} tuples, {points} points each"


def check_cocycle_condition(rng, tuples, dims, samples=12):
    for n in dims:
        done = 0
        while done < tuples:
            mats = [_rand_gl(rng, n) for _ in range(n + 1)]
            try:
                vals = cocycle_defect(mats, _nonzero(samples, n, lambda: rng.randrange(-8, 9)))
            except DegenerateTuple:
                continue
            if len(set(vals)) != 1:
                return False, f"defect not constant for dim {n}"
            done += 1
    return True, f"constant defect, dims {tuple(dims)}"


def check_unit_cone_domain():
    # Hill's cocycle at (1, eps) is the Shintani cone of eps with its closed
    # face, the ray through 1, moved to eps; each covers one point of every
    # eps-orbit, inside the cone and on both edges
    for D in (5, 3):
        F = RealQuadraticField(D)
        e = eps_plus(F)
        m = F.mult_matrix(e)
        kappa = hill_cone_function(GLTuple((identity(2), m)))
        ((w, cone),) = shintani_fan(F).terms
        moved = (w, OpenCone((mat_vec(m, cone.generators[0]),)))
        parts = sorted(kappa.terms, key=lambda t: t[1].dim)
        if cone.closed != (1,) or parts != [moved, (w, OpenCone(cone.generators))]:
            return False, f"cocycle is not the eps-moved Shintani fan for D={D}"
        for v in ((Fraction(7, 2), Fraction(1, 3)), (Fraction(9), Fraction(4)), (Fraction(5), 0)):
            for fan in (kappa, shintani_fan(F)):
                if sum(fan.evaluate(u) for u in (v, tuple(mat_vec(m, v)))) != 1:
                    return False, f"domain does not tile at {v} for D={D}"
    return True, "cocycle domain tiles one orbit point for D = 5, 3"


def check_measure_routes():
    p = 3
    f_good = zn_indicator(1) - lattice_indicator(((2,),)).scale(2)
    f_good = TestFunction(1, f_good.terms, away_from=p)
    f_bad = zn_indicator(1, away_from=p)
    U = PLevelSet(p, 0, 1, ((0,),))
    if not is_measure(f_good, _RAY, pseudo_from_cone(f_good, _RAY, U)):
        return False, "smoothed function rejected"
    if is_measure(f_bad, _RAY, pseudo_from_cone(f_bad, _RAY, U)):
        return False, "unsmoothed function accepted"
    return True, "smoothed accepted, unsmoothed rejected, routes agree"


MeasureInstance = namedtuple("MeasureInstance", "f cone U smoothed pm accepted")


def measure_instances(rng, count, ps=(3,), ells=(2, 5, 7), smooth=0.6, levels=(0,)):
    """count candidates in dims 1-2, smoothed with probability `smooth`; a
    single p or level draws nothing (one level: all of p^m Z_p^n).
    is_measure runs both routes and raises on any disagreement."""
    out = []
    while len(out) < count:
        p = rng.choice(ps) if len(ps) > 1 else ps[0]
        n = rng.choice((1, 2))
        ell = rng.choice(ells)
        smoothed = rng.random() < smooth
        f = zn_indicator(n)
        if smoothed:  # minus ell^n times the indicator of a coset of ell Z^n
            off = (0,) if n == 1 else (rng.randrange(ell), 0)
            basis = [[ell * (i == j) for j in range(n)] for i in range(n)]
            f = f - lattice_indicator(basis, offset=off).scale(ell**n)
        cone = _RAY if n == 1 else OpenCone(((1, 0), (rng.randrange(0, 3), 1)))
        f = TestFunction(n, f.terms, away_from=p)
        m = rng.choice(levels) if len(levels) > 1 else levels[0]
        off = tuple(rng.randrange(p**m) for _ in range(n)) if len(levels) > 1 else (0,) * n
        U = PLevelSet(p, m, n, (off,))
        pm = pseudo_from_cone(f, cone, U)
        out.append(MeasureInstance(f, cone, U, smoothed, pm, is_measure(f, cone, pm)))
    return out


def check_random_measure_routes(instances):
    if any(e.accepted and not e.smoothed for e in instances):
        return False, "an unsmoothed function was accepted"
    accepted = sum(e.accepted for e in instances)
    return True, f"{len(instances)} instances, {accepted} accepted, no route disagreement"


def check_moment_identity(expanded, M):
    """Each (instance, transform) pair's moments at k <= 3 and the special
    values of its function tensored at p are p-integral and agree mod p^M."""
    for e, A in expanded:
        p = e.U.p
        for k, rhs in enumerate(special_value(tensor_at_p(e.f, e.U), e.cone, range(4))):
            lhs = moment(A, (k,) * e.f.n)
            integral = is_p_integral(lhs, p) and is_p_integral(rhs, p)
            if not integral or residue(lhs, p, M) != residue(rhs, p, M):
                return False, f"moment {k} at p = {p}: {lhs} vs special value {rhs}"
    return True, f"{4 * len(expanded)} moments agree mod p^{M}"


def check_kubota_leopoldt(kls, rng, pairs):
    """Pins and Euler factors of kls[3] (ell = 2), then Kummer pairs from rng:
    unit moments at k and k + (p - 1) p^j r agree mod p^(j + 1)."""
    kl = kls[3]
    if kl.mass() != Fraction(1, 2) or kl.moment(1) != Fraction(1, 4):
        return False, f"mass {kl.mass()}, first moment {kl.moment(1)}"
    for k in range(5):
        if kl.moment(k) != (1 - Fraction(2) ** (k + 1)) * hurwitz_value(1, 1, k):
            return False, f"moment {k} off"
    done = 0
    while done < pairs:
        p = rng.choice(sorted(kls))
        k1 = rng.randrange(1, 10)
        if k1 % (p - 1) == 0:
            continue
        j = rng.randrange(0, 2)
        r = rng.choice([x for x in (1, 2, 3) if x % p != 0])
        k2 = k1 + (p - 1) * p**j * r
        if k2 > kls[p].series.caps[0] - 2:  # keep inside the expansion caps
            continue
        d = kls[p].unit_moment(k1) - kls[p].unit_moment(k2)
        if d.denominator % p == 0 or d.numerator % p ** (j + 1) != 0:
            return False, f"Kummer congruence k = {k1}, {k2} fails mod {p}^{j + 1}"
        done += 1
    kummer = "one Kummer pair" if pairs == 1 else f"{pairs} Kummer pairs"
    return True, f"mass 1/2, moment 1/4, Euler factors, {kummer}"


def check_integrality(pool):
    """Every coefficient of each (p, transform) in pool is p-integral."""
    for i, (p, ser) in enumerate(pool):
        if any(not is_p_integral(c, p) for c in ser.coeffs.values()):
            return False, f"coefficients of transform {i} not {p}-integral"
    return True, "transform coefficients p-integral"


def check_class_groups():
    F5 = RealQuadraticField(5)
    F3 = RealQuadraticField(3)
    ok = (
        h_plus_count(F5) == 1
        and h_plus_count(F3) == 2
        and h_plus_count(F5, 3) == 2
        and [r.norm for r in narrow_ray_class_reps(F5, 3)] == [1, 5]
    )
    return ok, "narrow class and ray class pins for D = 5, 3"


def interpolation_table(cases, caps, series=smoothed_class_series):
    """Rows (D, k, p-adic side, exact side) for the points (D, p, ell, m, ks)
    of O smoothed above ell at level m, and the (p, transform) pairs."""
    rows, pool = [], []
    for D, p, ell, m, ks in cases:
        F = RealQuadraticField(D)
        O, c = o_ideal(F), prime_above(F, ell)[0]
        ser = series(F, O, c, p, m, caps=caps)
        pool.append((p, ser))
        exact = exact_ray_class_zeta(F, O, p**m, ks, smoothing=c, star_at=None if m else p)
        rows += [(D, k, padic_partial_zeta(F, O, ser, p, k), ex) for k, ex in zip(ks, exact)]
    return rows, pool


def check_interpolation(rows, detail):
    """Each p-adic side equals its exact side, and so does its residue mod
    p^(M - guard), with a guard of at most 2."""
    for D, k, pv, ex in rows:
        v = pv.value
        mod = v.M - v.guard
        if pv.exact != ex or v.guard > 2 or v.residue % v.p**mod != residue(ex, v.p, mod):
            return False, f"D={D} k={k}: p-adic {pv.exact} vs exact {ex}"
    return True, detail


def _siegel_minus_one(D):
    # Siegel sigma-sum over the discriminant, independent of the cone
    # pipeline: zeta_F(-1) = sum_(t^2 < disc) sigma_1((disc - t^2)/4) / 60
    disc = D if D % 4 == 1 else 4 * D
    r = isqrt(disc)
    ns = [(disc - t * t) // 4 for t in range(-r, r + 1) if (disc - t * t) % 4 == 0]
    return Fraction(sum(d for n in ns for d in range(1, n + 1) if n % d == 0), 60)


def check_siegel_values(fields=(5, 2, 13), oracles=((1, _siegel_minus_one),)):
    """field_zeta_value at the k of each (k, oracle) pair against oracle(D)."""
    ks = sorted({k for k, _ in oracles})
    for D in fields:
        got = dict(zip(ks, field_zeta_value(RealQuadraticField(D), ks)))
        for k, oracle in oracles:
            if got[k] != oracle(D):
                return False, f"D={D} k={k}: cone {got[k]} vs oracle {oracle(D)}"
    against = "the sigma sum" if len(oracles) == 1 else f"{len(oracles)} oracles"
    return True, f"zeta_F({_at(ks)}) matches {against} for D = {', '.join(map(str, fields))}"


def _suites():
    """The quick and the full tier as (name, check) pairs.  The builders of
    what two checks share are cached per call, so one run builds each once."""
    kl3 = lru_cache(maxsize=None)(lambda: kubota_leopoldt(3, 2, caps=(8,)))
    series = lru_cache(maxsize=None)(smoothed_class_series)
    F5 = RealQuadraticField(5)
    quick = [
        ("bernoulli-constants", check_bernoulli_constants),
        ("riemann-values", check_riemann_values),
        ("hurwitz-sweep", check_hurwitz_sweep),
        ("zeta-two-route", check_zeta_two_route),
        ("hill-pointwise", lambda: check_hill_pointwise(random.Random(4099), 3, 25)),
        ("cocycle-condition", lambda: check_cocycle_condition(random.Random(6011), 2, (2,))),
        ("unit-cone-domain", check_unit_cone_domain),
        ("measure-routes", check_measure_routes),
        ("kubota-leopoldt", lambda: check_kubota_leopoldt({3: kl3()}, random.Random(8009), 1)),
        ("integrality", lambda: check_integrality([(3, kl3().series), (3, series(
            F5, o_ideal(F5), prime_above(F5, 11)[0], 3, 1, caps=(4, 4)))])),
        ("class-groups", check_class_groups),
        ("interpolation-quick", lambda: check_interpolation(interpolation_table(
            [(5, 3, 11, 1, [0, 1])], (2, 2), series)[0], "D=5, p=3, ell=11, level 1, k = 0, 1")),
    ]
    return quick, quick + [
        ("cocycle-condition-3d", lambda: check_cocycle_condition(random.Random(6011), 3, (2, 3))),
        ("hill-pointwise-deep", lambda: check_hill_pointwise(random.Random(4099), 6, 50)),
        ("random-measure-routes", lambda: check_random_measure_routes(
            measure_instances(random.Random(9001), 12))),
        ("siegel-values", check_siegel_values),
        ("interpolation-full", lambda: check_interpolation(interpolation_table(
            [(5, 3, 11, 1, range(3)), (2, 5, 7, 1, range(3)), (5, 3, 11, 0, [1])], (4, 4),
            series)[0], "6 level-one points and one level-zero point")),
    ]


def run(level: str = "quick") -> list[dict]:
    suite = _suites()[level != "quick"]
    results = []
    for name, fn in suite:
        try:
            ok, detail = fn()
        except Exception as exc:  # report, never raise
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    return results
