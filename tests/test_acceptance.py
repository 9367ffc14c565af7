"""Acceptance gate.

Nine end-to-end checks covering the full pipeline: exact cone zeta values
against closed-form and Siegel oracles, the perturbed-cone cocycle, the
two-route measure criterion, the moment identity between expansions and
special values, interpolation for real quadratic fields, Kubota-Leopoldt
sanity, and an integrality scan of every accepted measure.

Each verdict comes from a parameterised check in `shintani_kit.selftest`,
called at the gate's sizes and seeds, with the oracles of tests/oracles.py
where the gate has its own.  Each check prints one PASS/FAIL line with its
runtime and enforces a fixed budget.  Artifacts shared between checks (the
randomized measure pool and its expansions, the interpolation table, the
one-variable measures) are built once and cached.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from shintani_kit.padic_measures import amice_expand, kubota_leopoldt
from shintani_kit.selftest import (
    check_cocycle_condition, check_hill_pointwise, check_hurwitz_sweep, check_integrality,
    check_interpolation, check_kubota_leopoldt, check_moment_identity,
    check_random_measure_routes, check_riemann_values, check_siegel_values,
    interpolation_table, measure_instances,
)

from oracles import hurwitz_special_value, siegel_zeta_minus_one, siegel_zeta_minus_three


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
    return measure_instances(rng, 32, ps=(3, 7), ells=(2, 5), smooth=0.65, levels=(0, 1))


@lru_cache(maxsize=1)
def _expanded():
    """Each accepted instance with its transform, at caps 5 per variable."""
    return [(e, amice_expand(e.pm, (5,) * e.f.n)) for e in _measure_instances() if e.accepted]


@lru_cache(maxsize=1)
def _interpolation_table():
    """Both sides of every interpolation point for the three field setups,
    at levels 0 and 1 and k = 0, 1, 2, with the series that produced the
    p-adic side kept for the integrality scan."""
    setups = ((5, 3, 11), (2, 5, 7), (3, 5, 11))
    cases = [(D, p, ell, m, range(3)) for D, p, ell in setups for m in (0, 1)]
    return interpolation_table(cases, (6, 6))


@lru_cache(maxsize=1)
def _kl_measures():
    return {p: kubota_leopoldt(p, 2, caps=(32,)) for p in (3, 5)}


# ---------------------------------------------------------------------------
# the checks


def test_criterion_1_hurwitz_oracle(capsys):
    t0 = time.monotonic()
    # 21 pairs 1 <= a <= f <= 6 at k = 0..5: all 126 values match, since
    # the check counts a missing value as a mismatch
    ok, _ = check_hurwitz_sweep(6, hurwitz_special_value)
    _verdict(capsys, 1, "hurwitz oracle, 1<=a<=f<=6, k<=5", ok, t0, 10.0)


def test_criterion_2_riemann_values(capsys):
    t0 = time.monotonic()
    ok, _ = check_riemann_values([0, 1, 3])
    _verdict(capsys, 2, "riemann zeta at 0, -1, -3", ok, t0, 1.0)


def test_criterion_3_sqrt5_zeta(capsys):
    t0 = time.monotonic()
    # the pins z0 = 0 and z1 = 1/30, and the Siegel oracle at k = 1, 3
    pins = [(0, lambda D: 0), (1, lambda D: Fraction(1, 30))]
    oracles = [(1, siegel_zeta_minus_one), (3, siegel_zeta_minus_three)]
    ok, _ = check_siegel_values((5,), pins + oracles)
    _verdict(capsys, 3, "Q(sqrt 5) zeta vs Siegel oracle", ok, t0, 30.0)


def test_criterion_4_measure_criterion(capsys):
    t0 = time.monotonic()
    inst = _measure_instances()
    accepted = sum(e.accepted for e in inst)
    ok, _ = check_random_measure_routes(inst)  # no unsmoothed one accepted
    ok = ok and len(inst) >= 30 and accepted >= 5
    ok = ok and {e.f.n for e in inst} == {1, 2} and {e.U.p for e in inst} == {3, 7}
    label = f"two-route criterion, {len(inst)} instances, {accepted} measures"
    _verdict(capsys, 4, label, ok, t0, 120.0)


def test_criterion_5_master_moment_identity(capsys):
    t0 = time.monotonic()
    M, g = 8, 0
    expanded = _expanded()
    checked = 4 * len(expanded)  # k = 0..3 per accepted instance
    ok, _ = check_moment_identity(expanded, M - g)
    ok = ok and g <= 2 and checked >= 20
    _verdict(capsys, 5, f"moment identity, {checked} checks", ok, t0, 300.0)


def test_criterion_6_hill_cocycle(capsys):
    t0 = time.monotonic()
    rng = random.Random(602026)
    # cocycle condition: defect constant across 50 sample points, 10 tuples
    # of n+1 matrices per dimension; then extraction vs direct evaluation on
    # 100 points per tuple, plus the sandwich: one constant unit value
    # strictly inside the span of the first columns, zero outside its closure
    ok = (
        check_cocycle_condition(rng, 10, (2, 3), samples=50)[0]
        and check_hill_pointwise(rng, 10, 100, (2, 3))[0]
    )
    _verdict(capsys, 6, "cocycle, extraction, sandwich, dims 2-3", ok, t0, 180.0)


def test_criterion_7_interpolation(capsys):
    t0 = time.monotonic()
    rows, _ = _interpolation_table()
    # exact equality, and the residues at M = 6 agree mod p^(M - g), g <= 2
    label = "interpolation, 3 fields x 2 levels x 3 weights"
    ok, _ = check_interpolation(rows, label)
    ok = ok and len(rows) == 18
    _verdict(capsys, 7, label, ok, t0, 600.0)


def test_criterion_8_kubota_leopoldt(capsys):
    t0 = time.monotonic()
    # mass 1/2 and moment 1/4 at p = 3, then 10 kummer pairs k, k + (p-1)p^j r
    # inside the expansion caps, congruent mod p^(j+1)
    ok, _ = check_kubota_leopoldt(_kl_measures(), random.Random(802026), 10)
    _verdict(capsys, 8, "mass 1/2, moment 1/4, 10 kummer pairs", ok, t0, 60.0)


def test_criterion_9_integrality_scan(capsys):
    t0 = time.monotonic()
    pool = [(e.U.p, A) for e, A in _expanded()]
    pool += _interpolation_table()[1]
    pool += [(p, kl.series) for p, kl in _kl_measures().items()]
    ok, _ = check_integrality(pool)
    ok = ok and len(pool) >= 15
    _verdict(capsys, 9, f"coefficients p-integral, {len(pool)} measures", ok, t0, 60.0)
