"""Acceptance gate.

Nine end-to-end checks covering the full pipeline: exact cone zeta values
against closed-form and Siegel oracles, the perturbed-cone cocycle, the
two-route measure criterion, the moment identity between expansions and
special values, interpolation for real quadratic fields, Kubota-Leopoldt
sanity, and an integrality scan of every accepted measure.

Each check prints one PASS/FAIL line with its runtime and enforces a fixed
budget.  Artifacts shared between checks (the randomized measure pool, the
interpolation table, the one-variable measures) are built once and cached.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from shintani_kit._linalg import mat_vec
from shintani_kit._rational_padics import is_p_integral, residue
from shintani_kit.cones import (
    OpenCone,
    cocycle_defect,
    hill_cone_function,
    hill_eval,
)
from shintani_kit.errors import DegenerateTuple
from shintani_kit.padic_measures import (
    amice_expand,
    is_measure,
    kubota_leopoldt,
    moment,
    pseudo_from_cone,
)
from shintani_kit.real_quadratic_fields import (
    RealQuadraticField,
    exact_ray_class_zeta,
    field_zeta_value,
    o_ideal,
    padic_partial_zeta,
    prime_above,
    smoothed_class_series,
)
from shintani_kit.selftest import _rand_gl, _rand_tuple
from shintani_kit.shintani_zeta import special_value
from shintani_kit.test_functions import (
    PLevelSet,
    TestFunction,
    lattice_indicator,
    tensor_at_p,
    zn_indicator,
)

from oracles import (
    hurwitz_special_value,
    siegel_zeta_minus_one,
    siegel_zeta_minus_three,
)

_RAY = OpenCone(((1,),))


def _verdict(capsys, num, label, ok, t0, budget):
    elapsed = time.monotonic() - t0
    good = bool(ok) and elapsed < budget
    line = (
        f"acceptance {num} ({label}): {'PASS' if good else 'FAIL'}"
        f" in {elapsed:.2f}s (budget {budget:.0f}s)"
    )
    with capsys.disabled():
        print("\n" + line)
    assert good, line


# ---------------------------------------------------------------------------
# shared artifact builders (cached; the first check that needs one pays)


@lru_cache(maxsize=1)
def _measure_instances():
    """32 randomized (function, cone, level set) triples in dimensions 1-2
    at p in {3, 7}, mixing smoothed and unsmoothed functions and level-0/1
    sets.  is_measure runs both routes internally and raises on any
    disagreement, so surviving construction is itself the route check."""
    rng = random.Random(772026)
    out = []
    while len(out) < 32:
        p = rng.choice((3, 7))
        n = rng.choice((1, 2))
        ell = rng.choice((2, 5))
        smooth = rng.random() < 0.65
        if n == 1:
            f = zn_indicator(1)
            if smooth:
                f = f - lattice_indicator(((ell,),)).scale(ell)
            cone = _RAY
        else:
            f = zn_indicator(2)
            if smooth:
                off = (rng.randrange(ell), 0)
                f = f - lattice_indicator(
                    ((ell, 0), (0, ell)), offset=off
                ).scale(ell**2)
            cone = OpenCone(((1, 0), (rng.randrange(0, 3), 1)))
        f = TestFunction(f.n, f.terms, away_from=p)
        m = rng.choice((0, 1))
        U = PLevelSet(p, m, n, (tuple(rng.randrange(p**m) for _ in range(n)),))
        pm = pseudo_from_cone(f, cone, U)
        out.append(
            {
                "f": f,
                "cone": cone,
                "U": U,
                "p": p,
                "n": n,
                "smoothed": smooth,
                "pm": pm,
                "is_measure": is_measure(f, cone, pm),
            }
        )
    return out


def _instance_series(e):
    if "series" not in e:
        e["series"] = amice_expand(e["pm"], (5,) * e["n"])
    return e["series"]


@lru_cache(maxsize=1)
def _interpolation_table():
    """Both sides of every interpolation point for the three field setups,
    at levels 0 and 1 and k = 0, 1, 2, with the series that produced the
    p-adic side kept for the integrality scan."""
    rows = []
    series_pool = []
    for D, p, ell in ((5, 3, 11), (2, 5, 7), (3, 5, 11)):
        F = RealQuadraticField(D)
        O = o_ideal(F)
        c = prime_above(F, ell)[0]
        for m in (0, 1):
            ser = smoothed_class_series(F, O, c, p, m, caps=(6, 6))
            series_pool.append((p, ser))
            if m == 0:
                exact = exact_ray_class_zeta(F, O, 1, (0, 1, 2), smoothing=c, star_at=p)
            else:
                exact = exact_ray_class_zeta(F, O, p, (0, 1, 2), smoothing=c)
            for k, ex in enumerate(exact):
                pv = padic_partial_zeta(F, O, ser, p, k, M=6)
                rows.append((D, p, ell, m, k, pv, ex))
    return rows, series_pool


@lru_cache(maxsize=1)
def _kl_measures():
    return {
        3: kubota_leopoldt(3, 2, caps=(32,)),
        5: kubota_leopoldt(5, 2, caps=(32,)),
    }


# ---------------------------------------------------------------------------
# the checks


def test_criterion_1_hurwitz_oracle(capsys):
    t0 = time.monotonic()
    cases = 0
    ok = True
    for f in range(1, 7):
        for a in range(1, f + 1):
            lhs = special_value(lattice_indicator(((f,),), offset=(a,)), _RAY, range(6))
            for k, v in enumerate(lhs):
                ok = ok and v == hurwitz_special_value(a, f, k)
                cases += 1
    ok = ok and cases == 126
    _verdict(capsys, 1, "hurwitz oracle, 1<=a<=f<=6, k<=5", ok, t0, 10.0)


def test_criterion_2_riemann_values(capsys):
    t0 = time.monotonic()
    f = lattice_indicator(((1,),), offset=(1,))
    ok = special_value(f, _RAY, [0, 1, 3]) == [
        Fraction(-1, 2),
        Fraction(-1, 12),
        Fraction(1, 120),
    ]
    _verdict(capsys, 2, "riemann zeta at 0, -1, -3", ok, t0, 1.0)


def test_criterion_3_sqrt5_zeta(capsys):
    t0 = time.monotonic()
    F5 = RealQuadraticField(5)
    z0, z1, z3 = field_zeta_value(F5, [0, 1, 3])
    ok = (
        z0 == 0
        and z1 == Fraction(1, 30)
        and z1 == siegel_zeta_minus_one(5)
        and z3 == siegel_zeta_minus_three(5)
    )
    _verdict(capsys, 3, "Q(sqrt 5) zeta vs Siegel oracle", ok, t0, 30.0)


def test_criterion_4_measure_criterion(capsys):
    t0 = time.monotonic()
    inst = _measure_instances()
    accepted = sum(e["is_measure"] for e in inst)
    ok = (
        len(inst) >= 30
        and all(not e["is_measure"] for e in inst if not e["smoothed"])
        and accepted >= 5
        and {e["n"] for e in inst} == {1, 2}
        and {e["p"] for e in inst} == {3, 7}
    )
    label = f"two-route criterion, {len(inst)} instances, {accepted} measures"
    _verdict(capsys, 4, label, ok, t0, 120.0)


def test_criterion_5_master_moment_identity(capsys):
    t0 = time.monotonic()
    M, g = 8, 0
    checked = 0
    ok = g <= 2
    for e in _measure_instances():
        if not e["is_measure"]:
            continue
        A = _instance_series(e)
        ft = tensor_at_p(e["f"], e["U"])
        p, n = e["p"], e["n"]
        for k, rhs in enumerate(special_value(ft, e["cone"], range(4))):
            lhs = moment(A, (k,) * n)
            ok = ok and is_p_integral(lhs, p) and is_p_integral(rhs, p)
            ok = ok and residue(lhs, p, M - g) == residue(rhs, p, M - g)
            checked += 1
    ok = ok and checked >= 20
    _verdict(capsys, 5, f"moment identity, {checked} checks", ok, t0, 300.0)


def test_criterion_6_hill_cocycle(capsys):
    t0 = time.monotonic()
    rng = random.Random(602026)
    ok = True
    # cocycle condition: defect constant across sample points, 10 tuples
    # of n+1 matrices per dimension
    for n in (2, 3):
        done = 0
        while done < 10:
            mats = [_rand_gl(rng, n) for _ in range(n + 1)]
            samples = [
                [rng.randrange(-8, 9) for _ in range(n)] for _ in range(70)
            ]
            samples = [v for v in samples if any(v)][:50]
            if len(samples) < 50:
                continue
            try:
                vals = cocycle_defect(mats, samples)
            except DegenerateTuple:
                continue
            ok = ok and len(set(vals)) == 1
            done += 1
    # extraction vs direct evaluation on 100 points per tuple, plus the
    # sandwich: one constant unit value strictly inside the span of the
    # first columns, zero outside its closure
    for n in (2, 3):
        for _ in range(10):
            t = _rand_tuple(rng, n)
            cf = hill_cone_function(t)
            pts = 0
            while pts < 100:
                v = [
                    Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                    for _ in range(n)
                ]
                if not any(v):
                    continue
                ok = ok and cf.evaluate(v) == hill_eval(t, v)
                pts += 1
            u = [mat_vec(m, [1] + [0] * (n - 1)) for m in t.matrices]
            sigma = None
            for _ in range(20):
                coeffs = [Fraction(rng.randrange(1, 9)) for _ in range(n)]
                v = [
                    sum(c * ui[j] for c, ui in zip(coeffs, u)) for j in range(n)
                ]
                val = hill_eval(t, v)
                if sigma is None:
                    sigma = val
                    ok = ok and abs(sigma) == 1
                ok = ok and val == sigma
                coeffs[rng.randrange(n)] *= -1
                w = [
                    sum(c * ui[j] for c, ui in zip(coeffs, u)) for j in range(n)
                ]
                ok = ok and hill_eval(t, w) == 0
    _verdict(capsys, 6, "cocycle, extraction, sandwich, dims 2-3", ok, t0, 180.0)


def test_criterion_7_interpolation(capsys):
    t0 = time.monotonic()
    rows, _ = _interpolation_table()
    M = 6
    ok = len(rows) == 18
    for D, p, ell, m, k, pv, exact in rows:
        g = pv.value.guard
        ok = ok and g <= 2
        mod = p ** (M - g)
        ok = ok and pv.value.residue % mod == residue(exact, p, M - g)
    _verdict(capsys, 7, "interpolation, 3 fields x 2 levels x 3 weights", ok, t0, 600.0)


def test_criterion_8_kubota_leopoldt(capsys):
    t0 = time.monotonic()
    kls = _kl_measures()
    ok = kls[3].mass() == Fraction(1, 2) and kls[3].moment(1) == Fraction(1, 4)
    rng = random.Random(802026)
    pairs = 0
    while pairs < 10:
        p = rng.choice((3, 5))
        k1 = rng.randrange(1, 10)
        if k1 % (p - 1) == 0:
            continue
        j = rng.randrange(0, 2)
        r = rng.choice([x for x in (1, 2, 3) if x % p != 0])
        k2 = k1 + (p - 1) * p**j * r
        if k2 > 30:  # keep inside the expansion caps
            continue
        d = kls[p].unit_moment(k1) - kls[p].unit_moment(k2)
        ok = ok and d.denominator % p != 0 and d.numerator % p ** (j + 1) == 0
        pairs += 1
    _verdict(capsys, 8, "mass 1/2, moment 1/4, 10 kummer pairs", ok, t0, 60.0)


def test_criterion_9_integrality_scan(capsys):
    t0 = time.monotonic()
    scanned = 0
    ok = True
    for e in _measure_instances():
        if not e["is_measure"]:
            continue
        A = _instance_series(e)
        ok = ok and all(is_p_integral(c, e["p"]) for c in A.coeffs.values())
        scanned += 1
    _, series_pool = _interpolation_table()
    for p, ser in series_pool:
        ok = ok and all(is_p_integral(c, p) for c in ser.coeffs.values())
        scanned += 1
    for p, kl in _kl_measures().items():
        ok = ok and all(is_p_integral(c, p) for c in kl.series.coeffs.values())
        scanned += 1
    ok = ok and scanned >= 15
    _verdict(capsys, 9, f"coefficients p-integral, {scanned} measures", ok, t0, 60.0)
