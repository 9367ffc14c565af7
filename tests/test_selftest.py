"""Canaries for the shared checks: the acceptance gate takes its verdicts
from selftest's check functions, so each check must fail when what it
checks is wrong, or when it is handed a wrong oracle."""

import random
from dataclasses import replace

import pytest

from shintani_kit import selftest
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


ROW = dict(selftest.FULL)
# name: (the name patched in selftest, what its results become, the check)
CANARIES = {
    "hill-eval-negated": ("hill_eval", lambda v: -v, ROW["hill-pointwise"]),
    "defect-distinct": ("cocycle_defect", lambda d: list(range(len(d))), ROW["cocycle-condition"]),
    "riemann-off-by-one": ("special_value", _plus_one, ROW["riemann-values"]),
    "hurwitz-off-by-one": ("special_value", _plus_one, ROW["hurwitz-sweep"]),
    "moments-off-by-one": ("special_value", _plus_one, _moments),
    "padic-exact-off-by-one": (
        "padic_partial_zeta", lambda pv: replace(pv, exact=pv.exact + 1),
        ROW["interpolation-full"]),
    "kummer-difference-large": (
        "kubota_leopoldt", lambda kl: _LoudKummer(**vars(kl)), ROW["kubota-leopoldt"]),
    "unsmoothed-accepted": ("is_measure", lambda ok: True, ROW["random-measure-routes"]),
    "not-integral": ("is_p_integral", lambda ok: False, ROW["integrality"]),
    "wrong-hurwitz-oracle": (None, None, lambda: check_hurwitz_sweep(3, lambda a, f, k: 0)),
    "wrong-siegel-oracle": (None, None, lambda: check_siegel_values((5,), [(1, lambda D: 0)])),
}


@pytest.mark.parametrize("name", sorted(CANARIES))
def test_each_shared_check_fails_on_a_wrong_value(name, monkeypatch):
    target, wrong, check = CANARIES[name]
    if target:
        real = getattr(selftest, target)
        monkeypatch.setattr(selftest, target, lambda *a, **kw: wrong(real(*a, **kw)))
    ok, detail = check()
    assert ok is False, detail
