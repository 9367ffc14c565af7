"""Canaries for the shared checks: the acceptance gate takes its verdicts
from selftest's check functions, so each check must fail when what it
checks is wrong, or when it is handed a wrong oracle."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from shintani_kit import selftest
from shintani_kit.exact_core import TruncSeries
from shintani_kit.padic_measures import KubotaLeopoldt, amice_expand
from shintani_kit.selftest import check_hurwitz_sweep, check_siegel_values


class _LoudKummer(KubotaLeopoldt):
    # k1 - k2 = -(p - 1) p^j r has valuation j, so each difference misses p^(j + 1)
    def unit_moment(self, k):
        return super().unit_moment(k) + k


def _plus_one(vals):
    return [v + 1 for v in vals]


def _moments():
    inst = selftest.measure_instances(random.Random(9001), 12)
    return selftest.check_moment_identity(
        [(e, amice_expand(e.pm, (5,) * e.f.n)) for e in inst if e.accepted], 8)


# name: (the name patched in selftest, what its results become, the check:
# a row of selftest's full tier by name, or a callable)
CANARIES = {
    "hill-eval-negated": ("hill_eval", lambda v: -v, "hill-pointwise"),
    "defect-distinct": ("cocycle_defect", lambda d: list(range(len(d))), "cocycle-condition"),
    "riemann-off-by-one": ("special_value", _plus_one, "riemann-values"),
    "hurwitz-off-by-one": ("special_value", _plus_one, "hurwitz-sweep"),
    "moments-off-by-one": ("special_value", _plus_one, _moments),
    "padic-exact-off-by-one": (
        "padic_partial_zeta", lambda pv: replace(pv, exact=pv.exact + 1), "interpolation-full"),
    "series-not-integral": (
        "smoothed_class_series", lambda ser: ser + TruncSeries.constant(ser.caps, Fraction(1, 3)),
        "integrality"),
    "kummer-difference-large": (
        "kubota_leopoldt", lambda kl: _LoudKummer(**vars(kl)), "kubota-leopoldt"),
    "unsmoothed-accepted": ("is_measure", lambda ok: True, "random-measure-routes"),
    "not-integral": ("is_p_integral", lambda ok: False, "integrality"),
    "wrong-hurwitz-oracle": (None, None, lambda: check_hurwitz_sweep(3, lambda a, f, k: 0)),
    "wrong-siegel-oracle": (None, None, lambda: check_siegel_values((5,), [(1, lambda D: 0)])),
}


@pytest.mark.parametrize("name", sorted(CANARIES))
def test_each_shared_check_fails_on_a_wrong_value(name, monkeypatch):
    target, wrong, check = CANARIES[name]
    if target:
        real = getattr(selftest, target)
        monkeypatch.setattr(selftest, target, lambda *a, **kw: wrong(real(*a, **kw)))
    if isinstance(check, str):
        # the table is built after the patch, so its cached builders see it
        check = dict(selftest._suites()[1])[check]
    ok, detail = check()
    assert ok is False, detail


def test_details_name_the_points_and_oracles_checked():
    ok, detail = selftest.check_riemann_values([0, 1, 3])
    assert ok and detail.startswith("zeta(0, -1, -3) = ")
    assert selftest.check_riemann_values()[1].startswith("zeta(0..-3) = ")
    oracles = [(1, lambda D: Fraction(1, 30)), (3, lambda D: Fraction(1, 60))]
    ok, detail = check_siegel_values((5,), oracles)
    assert ok and detail == "zeta_F(-1, -3) matches 2 oracles for D = 5"


def test_full_run_builds_each_shared_artifact_once(monkeypatch):
    # kubota-leopoldt and integrality share one Kubota-Leopoldt measure;
    # integrality and interpolation-full share the D = 5 level-one series
    calls = Counter()
    for name in ("kubota_leopoldt", "smoothed_class_series"):
        real = getattr(selftest, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name, repr(args[-3:]), repr(kwargs)] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(selftest, name, counted)
    assert all(r["ok"] for r in selftest.run("full"))
    assert set(calls.values()) == {1} and len(calls) == 5
