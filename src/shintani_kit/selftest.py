"""Built-in verification suite behind the `selftest` subcommand.

Every check re-derives a known value or invariant from scratch and reports
a verdict instead of raising, so a broken build produces a readable failure
table.  The quick tier is a smoke test of each module; the full tier adds
the randomized cross-route and interpolation sweeps.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from . import exact_core
from ._linalg import det, from_columns, identity, mat, mat_vec, rank
from ._rational_padics import is_p_integral
from .cones import GLTuple, OpenCone, cocycle_defect, hill_cone_function, hill_eval
from .errors import DegenerateTuple
from .exact_core import bernoulli_number, bernoulli_polynomial, hurwitz_value
from .padic_measures import is_measure, kubota_leopoldt, pseudo_from_cone
from .real_quadratic_fields import (
    RealQuadraticField,
    eps_plus,
    exact_ray_class_zeta,
    field_zeta_value,
    h_plus_count,
    narrow_ray_class_reps,
    o_ideal,
    padic_partial_zeta,
    prime_above,
    shintani_fan,
    smoothed_class_series,
)
from .shintani_zeta import _special_value_series, quadratic_norm, special_value
from .test_functions import PLevelSet, TestFunction, lattice_indicator, zn_indicator


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


def check_riemann_values():
    f = _ray_function(1, 1)
    got = special_value(f, _RAY, range(4))
    want = [Fraction(-1, 2), Fraction(-1, 12), Fraction(0), Fraction(1, 120)]
    return got == want, f"zeta(0..-3) = {[str(v) for v in got]}"


def check_hurwitz_sweep():
    bad = 0
    for f in range(1, 5):
        for a in range(1, f + 1):
            got = special_value(_ray_function(a, f), _RAY, range(4))
            bad += sum(v != hurwitz_value(a, f, k) for k, v in enumerate(got))
    return bad == 0, f"{bad} mismatches over a <= f <= 4, k <= 3"


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


def check_hill_pointwise(tuples: int = 3, points: int = 25):
    rng = random.Random(4099)
    for _ in range(tuples):
        t = _rand_tuple(rng, 2)
        cf = hill_cone_function(t)
        for _ in range(points):
            v = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(2)]
            if not any(v):
                continue
            if cf.evaluate(v) != hill_eval(t, v):
                return False, f"extraction disagrees with direct evaluation at {v}"
    return True, f"{tuples} tuples, {points} points each"


def check_cocycle_condition(tuples: int = 2, dims=(2,)):
    rng = random.Random(6011)
    for n in dims:
        done = 0
        while done < tuples:
            mats = [_rand_gl(rng, n) for _ in range(n + 1)]
            samples = [
                [rng.randrange(-8, 9) for _ in range(n)] for _ in range(12)
            ]
            samples = [v for v in samples if any(v)]
            try:
                vals = cocycle_defect(mats, samples)
            except DegenerateTuple:
                continue
            if len(set(vals)) != 1:
                return False, f"defect not constant for dim {n}"
            done += 1
    return True, f"constant defect, dims {tuple(dims)}"


def check_unit_cone_domain():
    # Hill's cocycle at (1, eps) is the Shintani fan of eps with its ray
    # moved from 1 to eps; each covers one point of every eps-orbit
    for D in (5, 3):
        F = RealQuadraticField(D)
        e = eps_plus(F)
        m = F.mult_matrix(e)
        kappa = hill_cone_function(GLTuple((identity(2), m)))
        geo = shintani_fan(F, e)
        cone, (w, ray) = geo.terms
        moved = (w, OpenCone((mat_vec(m, ray.generators[0]),)))
        if sorted(kappa.terms, key=lambda t: t[1].dim) != [moved, cone]:
            return False, f"cocycle is not the eps-moved Shintani fan for D={D}"
        for v in ((Fraction(7, 2), Fraction(1, 3)), (Fraction(9), Fraction(4))):
            for fan in (kappa, geo):
                if sum(fan.evaluate(u) for u in (v, tuple(mat_vec(m, v)))) != 1:
                    return False, f"domain does not tile at {v} for D={D}"
    return True, "cocycle domain tiles one orbit point for D = 5, 3"


def check_measure_routes():
    p = 3
    f_good = TestFunction(
        1,
        (zn_indicator(1) - lattice_indicator(((2,),)).scale(2)).terms,
        away_from=p,
    )
    f_bad = zn_indicator(1, away_from=p)
    U = PLevelSet(p, 0, 1, ((0,),))
    if not is_measure(f_good, _RAY, pseudo_from_cone(f_good, _RAY, U)):
        return False, "smoothed function rejected"
    if is_measure(f_bad, _RAY, pseudo_from_cone(f_bad, _RAY, U)):
        return False, "unsmoothed function accepted"
    return True, "smoothed accepted, unsmoothed rejected, routes agree"


def check_random_measure_routes(instances: int = 12):
    rng = random.Random(9001)
    p = 3
    tried = 0
    accepted = 0
    while tried < instances:
        n = rng.choice((1, 2))
        ell = rng.choice((2, 5, 7))
        smooth = rng.random() < 0.6
        if n == 1:
            f = zn_indicator(1)
            if smooth:
                f = f - lattice_indicator(((ell,),)).scale(ell)
            cone = _RAY
            U = PLevelSet(p, 0, 1, ((0,),))
        else:
            f = zn_indicator(2)
            if smooth:
                f = f - lattice_indicator(
                    ((ell, 0), (0, ell)), offset=(rng.randrange(ell), 0)
                ).scale(ell**2)
            cone = OpenCone(((1, 0), (rng.randrange(0, 3), 1)))
            U = PLevelSet(p, 0, 2, ((0, 0),))
        f = TestFunction(f.n, f.terms, away_from=p)
        tried += 1
        verdict = is_measure(f, cone, pseudo_from_cone(f, cone, U))  # raises on route disagreement
        accepted += verdict
    return True, f"{tried} instances, {accepted} accepted, no route disagreement"


def check_kubota_leopoldt():
    kl = kubota_leopoldt(3, 2, caps=(8,))
    if kl.mass() != Fraction(1, 2) or kl.moment(1) != Fraction(1, 4):
        return False, f"mass {kl.mass()}, first moment {kl.moment(1)}"
    for k in range(5):
        want = (1 - Fraction(2) ** (k + 1)) * hurwitz_value(1, 1, k)
        if kl.moment(k) != want:
            return False, f"moment {k} off"
    d = kl.unit_moment(1) - kl.unit_moment(3)
    if d.denominator % 3 == 0 or d.numerator % 3 != 0:
        return False, "Kummer congruence k = 1, 3 fails mod 3"
    return True, "mass 1/2, moment 1/4, Euler factors, one Kummer pair"


def check_integrality():
    kl = kubota_leopoldt(3, 2, caps=(8,))
    if any(not is_p_integral(c, 3) for c in kl.series.coeffs.values()):
        return False, "one-variable coefficients not 3-integral"
    F5 = RealQuadraticField(5)
    ser = smoothed_class_series(
        F5, o_ideal(F5), prime_above(F5, 11)[0], 3, 1, caps=(4, 4)
    )
    if any(not is_p_integral(c, 3) for c in ser.coeffs.values()):
        return False, "class measure coefficients not 3-integral"
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


def check_interpolation_quick():
    F5 = RealQuadraticField(5)
    O = o_ideal(F5)
    c11 = prime_above(F5, 11)[0]
    ser = smoothed_class_series(F5, O, c11, 3, 1, caps=(2, 2))
    exact = exact_ray_class_zeta(F5, O, 3, [0, 1], smoothing=c11)
    for k, ex in enumerate(exact):
        pv = padic_partial_zeta(F5, O, ser, 3, k).exact
        if pv != ex:
            return False, f"moment k={k}: p-adic {pv} vs exact {ex}"
    return True, "D=5, p=3, ell=11, level 1, k = 0, 1"


def check_interpolation_full():
    rows = []
    for D, p, ell in ((5, 3, 11), (2, 5, 7)):
        F = RealQuadraticField(D)
        O = o_ideal(F)
        c = prime_above(F, ell)[0]
        ser = smoothed_class_series(F, O, c, p, 1, caps=(4, 4))
        exact = exact_ray_class_zeta(F, O, p, range(3), smoothing=c)
        for k, ex in enumerate(exact):
            pv = padic_partial_zeta(F, O, ser, p, k).exact
            if pv != ex:
                return False, f"(D,p,ell)=({D},{p},{ell}) k={k}: {pv} vs {ex}"
            rows.append((D, k))
    # one level-zero point with the p-part of the exact sum removed
    F5 = RealQuadraticField(5)
    O = o_ideal(F5)
    c11 = prime_above(F5, 11)[0]
    ser = smoothed_class_series(F5, O, c11, 3, 0, caps=(4, 4))
    pv = padic_partial_zeta(F5, O, ser, 3, 1).exact
    (ex,) = exact_ray_class_zeta(F5, O, 1, [1], smoothing=c11, star_at=3)
    if pv != ex:
        return False, f"level-zero moment: {pv} vs {ex}"
    return True, f"{len(rows)} level-one points and one level-zero point"


def check_siegel_values():
    # Siegel sigma-sum over the discriminant, independent of the cone
    # pipeline: zeta_F(-1) = sum_(t^2 < disc) sigma_1((disc - t^2)/4) / 60
    def sigma(n, power):
        return sum(d**power for d in range(1, n + 1) if n % d == 0)

    for D in (5, 2, 13):
        disc = D if D % 4 == 1 else 4 * D
        total = 0
        for t in range(-isqrt(disc), isqrt(disc) + 1):
            if (disc - t * t) % 4 == 0 and disc - t * t > 0:
                total += sigma((disc - t * t) // 4, 1)
        want = Fraction(total, 60)
        (got,) = field_zeta_value(RealQuadraticField(D), [1])
        if got != want:
            return False, f"D={D}: cone {got} vs Siegel {want}"
    return True, "zeta_F(-1) matches the sigma sum for D = 5, 2, 13"


QUICK = [
    ("bernoulli-constants", check_bernoulli_constants),
    ("riemann-values", check_riemann_values),
    ("hurwitz-sweep", check_hurwitz_sweep),
    ("zeta-two-route", check_zeta_two_route),
    ("hill-pointwise", check_hill_pointwise),
    ("cocycle-condition", check_cocycle_condition),
    ("unit-cone-domain", check_unit_cone_domain),
    ("measure-routes", check_measure_routes),
    ("kubota-leopoldt", check_kubota_leopoldt),
    ("integrality", check_integrality),
    ("class-groups", check_class_groups),
    ("interpolation-quick", check_interpolation_quick),
]

FULL = QUICK + [
    ("cocycle-condition-3d", lambda: check_cocycle_condition(tuples=3, dims=(2, 3))),
    ("hill-pointwise-deep", lambda: check_hill_pointwise(tuples=6, points=50)),
    ("random-measure-routes", check_random_measure_routes),
    ("siegel-values", check_siegel_values),
    ("interpolation-full", check_interpolation_full),
]


def run(level: str = "quick") -> list[dict]:
    suite = QUICK if level == "quick" else FULL
    results = []
    for name, fn in suite:
        try:
            ok, detail = fn()
        except Exception as exc:  # report, never raise
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    return results
