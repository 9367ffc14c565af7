"""Each enumeration runs once per call.

The exact side enumerates a cone's parallelepiped in `shintani_zeta.build_G`
and the p-adic side in the `parallelepiped_support` call of
`padic_measures.pseudo_from_cone`.  Counters on those two names pin how
many enumerations a whole k-list, a measure check and a Kubota-Leopoldt
construction make: one per (function, cone) on the exact side, and one
pseudo-measure that `is_measure` judges and `amice_expand` expands.  A
counter on `padic_measures._complete_directions` pins that such a
pseudo-measure completes its directions to a basis once, for the verdict
and the expansion together.
"""

import json

import pytest

from shintani_kit import cli, padic_measures, shintani_zeta
from shintani_kit.padic_measures import kubota_leopoldt
from shintani_kit.real_quadratic_fields import (
    RealQuadraticField,
    exact_ray_class_zeta,
    o_ideal,
    prime_above,
    ray_unit,
)

# the two padic-zeta configs of the golden interpolation record
GOLDEN_CONFIGS = [
    {"D": 5, "p": 3, "ell": 11, "k": [0, 1, 2], "caps": [6, 6], "m": m} for m in (0, 1)
]

# the measure config of the README: [Z] - 2[2Z] on the positive ray at p = 3
ACCEPTED_MEASURE = {
    "n": 1,
    "p": 3,
    "terms": [
        {"weight": 1, "offset": [0], "basis": [[1]]},
        {"weight": -2, "offset": [0], "basis": [[2]]},
    ],
    "cones": [{"weight": 1, "generators": [[1]]}],
    "k": [0, 1],
    "caps": [6],
}


@pytest.fixture
def counts(monkeypatch):
    """Call counters on the exact and the p-adic enumeration, and on the
    completion of a pseudo-measure's directions."""
    seen = {"build_G": 0, "parallelepiped_support": 0, "_complete_directions": 0}
    for module, name in (
        (shintani_zeta, "build_G"),
        (padic_measures, "parallelepiped_support"),
        (padic_measures, "_complete_directions"),
    ):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            seen[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return seen


def _run(tmp_path, capsys, command, cfg):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_golden_padic_zeta_builds_each_cone_once(counts, tmp_path, capsys):
    # one exact call per level and per level-zero part for the whole
    # k-list, over eps_plus's one half-open cone: the ray unit eps_plus^t
    # enters as t unit pullbacks of the test function, not as t cones.
    # At m = 0 (modulus 1) 3 is inert in Q(sqrt 5) and the star is two
    # parts (the whole lattice minus 3O); at m = 1 (t = 4, the order of
    # eps_plus mod 3) one part, so 2 + 1 = 3 cones
    for cfg in GOLDEN_CONFIGS:
        code, _ = _run(tmp_path, capsys, "padic-zeta", cfg)
        assert code == 0
    assert counts["build_G"] == 3


def test_exact_side_builds_each_cone_once_whatever_t(counts):
    # eps_plus has order t = 12 mod 9 at D = 5; the t pullbacks share the
    # one half-open cone, so build_G runs once (24 times over t translates
    # of an open cone and its ray)
    F5 = RealQuadraticField(5)
    assert ray_unit(F5, 9)[1] == 12
    exact_ray_class_zeta(F5, o_ideal(F5), 9, [0, 1], smoothing=prime_above(F5, 11)[0])
    assert counts["build_G"] == 1


def test_accepted_measure_enumerates_once(counts, tmp_path, capsys):
    code, rec = _run(tmp_path, capsys, "measure", ACCEPTED_MEASURE)
    assert code == 0
    assert rec["values"]["is_measure"] is True
    assert counts["parallelepiped_support"] == 1
    assert counts["_complete_directions"] == 1


def test_kubota_leopoldt_enumerates_once_per_level_set(counts):
    # the full level set, and the two unit residues mod 3
    kubota_leopoldt(3, 2, (32,))
    assert counts["parallelepiped_support"] == 3
    assert counts["_complete_directions"] == 3
