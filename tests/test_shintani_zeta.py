import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import bernoulli_sums_reference, closed_form_reference, translate
from oracles import (
    bernoulli_oracle,
    hurwitz_special_value,
    siegel_zeta_minus_one,
    siegel_zeta_minus_three,
)
from shintani_kit import exact_core, selftest, shintani_zeta
from shintani_kit._linalg import rank
from shintani_kit.cones import ConeFunction, OpenCone
from shintani_kit.errors import IrrationalResidue, NotInPositiveOrthant
from shintani_kit.exact_core import QuadScalar, bernoulli_number, quad_sign
from shintani_kit.real_quadratic_fields import (
    RealQuadraticField,
    exact_ray_class_zeta,
    o_ideal,
    prime_above,
)
from shintani_kit.shintani_zeta import (
    NormStructure,
    _bernoulli_sums,
    _closed_form_slices,
    _special_value_series,
    build_G,
    quadratic_norm,
    special_value,
    std_norm,
)
from shintani_kit.test_functions import (
    TestFunction,
    gl_act_test,
    lattice_indicator,
    zn_indicator,
)

F = Fraction
RAY = OpenCone(((F(1),),))


def test_oracle_self_pins():
    # frozen reference values for the oracle helpers themselves
    assert bernoulli_oracle(1) == F(-1, 2)
    assert bernoulli_oracle(12) == F(-691, 2730)
    assert hurwitz_special_value(1, 1, 0) == F(-1, 2)
    assert hurwitz_special_value(1, 3, 1) == F(1, 12)
    assert siegel_zeta_minus_one(5) == F(1, 30)
    assert siegel_zeta_minus_one(2) == F(1, 12)
    assert siegel_zeta_minus_one(3) == F(1, 6)
    assert siegel_zeta_minus_three(5) == F(1, 60)
    assert siegel_zeta_minus_three(2) == F(11, 120)


def test_oracle_bernoulli_matches_package():
    for k in range(20):
        assert bernoulli_oracle(k) == bernoulli_number(k)


def test_riemann_values():
    f = zn_indicator(1)
    assert special_value(f, RAY, range(6)) == [F(-1, 2), F(-1, 12), 0, F(1, 120), 0, F(-1, 252)]


def test_hurwitz_agreement():
    # selftest's hurwitz-sweep against the oracle, a <= f <= 5 and k <= 4
    ok, detail = selftest.check_hurwitz_sweep(5, hurwitz_special_value)
    assert ok, detail


def test_ray_scaling():
    f = lattice_indicator(((3,),))
    base = special_value(zn_indicator(1), RAY, range(4))
    assert special_value(f, RAY, range(4)) == [F(3) ** k * v for k, v in enumerate(base)]
    # the cone generator's own scale never matters
    fat_ray = OpenCone(((F(7, 2),),))
    assert special_value(f, fat_ray, range(4)) == special_value(f, RAY, range(4))


def test_weighted_function_linearity():
    f = zn_indicator(1) - lattice_indicator(((2,),)).scale(2)
    ones = special_value(zn_indicator(1), RAY, range(5))
    evens = special_value(lattice_indicator(((2,),)), RAY, range(5))
    expect = [a - 2 * b for a, b in zip(ones, evens)]
    assert special_value(f, RAY, range(5)) == expect
    # smoothed Riemann values: (1 - 2^(1+k)) * zeta(-k)
    for k, v in enumerate(expect):
        assert v == (1 - F(2) ** (k + 1)) * hurwitz_special_value(1, 1, k)


def test_rank_deficient_diagonal():
    f = zn_indicator(2)
    diag = OpenCone(((F(1), F(1)),))
    # N(m, m) = m^2, so the value at -k is zeta(-2k)
    assert special_value(f, diag, range(3)) == [F(-1, 2), 0, 0]
    steep = OpenCone(((F(1), F(2)),))
    # N(m, 2m) = 2m^2: value 2^k * zeta(-2k)
    assert special_value(f, steep, [0, 1]) == [F(-1, 2), 0]


def test_refinement_additivity():
    f = zn_indicator(2)
    whole = OpenCone(((F(1), F(1)), (F(1), F(3))))
    mid = (F(1), F(2))
    parts = [
        OpenCone(((F(1), F(1)), mid)),
        OpenCone((mid,)),
        OpenCone((mid, (F(1), F(3)))),
    ]
    total = [sum(vs) for vs in zip(*(special_value(f, c, range(3)) for c in parts))]
    assert special_value(f, whole, range(3)) == total


def test_refinement_additivity_translated():
    rng = random.Random(21)
    f = lattice_indicator(((2, 1), (0, 3)), offset=(F(1, 2), F(1, 3)))
    whole = OpenCone(((F(2), F(1)), (F(1), F(2))))
    mid = (F(3), F(3))
    parts = [
        OpenCone(((F(2), F(1)), mid)),
        OpenCone((mid,)),
        OpenCone((mid, (F(1), F(2)))),
    ]
    total = [sum(vs) for vs in zip(*(special_value(f, c, range(3)) for c in parts))]
    assert special_value(f, whole, range(3)) == total


def test_permutation_symmetry():
    rng = random.Random(22)
    swap = ((0, 1), (1, 0))
    for _ in range(5):
        off = (F(rng.randint(0, 3)), F(rng.randint(0, 3)))
        f = lattice_indicator(((2, 0), (0, 3)), offset=off) + zn_indicator(2)
        cone = OpenCone(((F(1), F(2)), (F(3), F(1))))
        swapped_cone = OpenCone(tuple(tuple(reversed(g)) for g in cone.generators))
        assert special_value(f, cone, range(3)) == special_value(
            gl_act_test(f, swap), swapped_cone, range(3)
        )


def test_not_in_positive_orthant():
    f = zn_indicator(2)
    with pytest.raises(NotInPositiveOrthant):
        special_value(f, OpenCone(((F(1), F(0)), (F(1), F(1)))), [1])
    with pytest.raises(NotInPositiveOrthant):
        special_value(f, OpenCone(((F(1), F(-1)),)), [0])
    ns5 = quadratic_norm(5)
    # (0,1) is omega, whose conjugate is negative
    with pytest.raises(NotInPositiveOrthant):
        special_value(f, OpenCone(((F(0), F(1)),)), [0], ns=ns5)


def test_quadratic_rank_deficient():
    ns5 = quadratic_norm(5)
    f = zn_indicator(2)
    ray = OpenCone(((F(1), F(0)),))
    # points (m, 0) have norm m^2
    assert special_value(f, ray, [0, 1], ns=ns5) == [F(-1, 2), 0]
    assert special_value(f, ray, [0], ns=ns5, conjugate_shortcut=False) == [F(-1, 2)]


def test_quadratic_shortcut_matches_full_loop():
    ns5 = quadratic_norm(5)
    cones = [
        OpenCone(((F(1), F(0)), (F(1), F(1)))),
        OpenCone(((F(1), F(0)),)),
        OpenCone(((F(1), F(1)),)),
        OpenCone(((F(2), F(1)), (F(1), F(1)))),
    ]
    fs = [
        zn_indicator(2),
        translate(zn_indicator(2), (F(1, 3), F(2, 3))),
        lattice_indicator(((3, 0), (0, 3)), offset=(1, 2)),
    ]
    for f in fs:
        for cone in cones:
            a = special_value(f, cone, range(3), ns=ns5)
            b = special_value(f, cone, range(3), ns=ns5, conjugate_shortcut=False)
            assert a == b


def test_quadratic_field_domain_values():
    # Q(sqrt 5): the unit (1+sqrt5)/2 has norm -1, its square is 1 + omega,
    # and the fan [cone((1,0),(1,1))] + [cone((1,0))] is a fundamental
    # domain for the totally positive units acting on the first quadrant
    ns5 = quadratic_norm(5)
    f = zn_indicator(2)
    fan = ConeFunction(
        [
            (F(1), OpenCone(((F(1), F(0)), (F(1), F(1))))),
            (F(1), OpenCone(((F(1), F(0)),))),
        ]
    )
    assert special_value(f, fan, [0, 1, 3], ns=ns5) == [
        0,
        siegel_zeta_minus_one(5),
        siegel_zeta_minus_three(5),
    ]


def test_cone_function_rejects_constant():
    f = zn_indicator(1)
    cf = ConeFunction([(F(1), RAY)], F(1))
    with pytest.raises(ValueError):
        special_value(f, cf, [0])


def test_norm_value():
    # the two forms of quadratic_norm(5) multiply to the field norm
    ns5 = quadratic_norm(5)
    field = RealQuadraticField(5)
    for v in ((1, 0), (0, 1), (1, 1), (3, -2), (F(1, 2), 7)):
        a, b = ns5.form_values(v)
        assert a * b == field.norm(v)
    assert field.norm((0, 1)) == -1  # omega * conj(omega) = (1-5)/4
    assert math.prod(std_norm(3).form_values((2, 3, 4))) == 24


def test_irrational_residue_guard():
    # a deliberately non-conjugate pair of forms makes the residue land
    # outside Q; the full loop must refuse rather than project
    D = 5
    omega = QuadScalar(F(1, 2), F(1, 2), D)
    one = QuadScalar(1, 0, D)
    ns = NormStructure("custom", ((one, omega), (one, one)))
    f = zn_indicator(2)
    cone = OpenCone(((F(1), F(1)), (F(2), F(1))))
    for route in (special_value, _special_value_series):
        with pytest.raises(IrrationalResidue):
            route(f, cone, [1], ns=ns, conjugate_shortcut=False)


def test_build_g_point_collection():
    f = zn_indicator(1) - lattice_indicator(((2,),)).scale(2)
    G = build_G(f, OpenCone(((F(1),),)), std_norm(1))
    assert G.scaled_gens == ((F(2),),)
    # x as (den, *nums), t as (q, *T) and the tile: Z on the tile 1 = 2/2
    # at t = 1 stands for x = 1 and 2, and 2Z has x = 2 at t = 1
    assert G.points == (((1, 1), (1, 1), (2,), F(1)), ((1, 2), (1, 1), (1,), F(-2)))


def _random_cone(rng, ns, r):
    """r independent integer generators on which every form is positive."""
    n = ns.n
    while True:
        gens = [tuple(F(rng.randint(0, 4)) for _ in range(n)) for _ in range(r)]
        if rank(gens) < r:
            continue
        if all(quad_sign(x) > 0 for g in gens for x in ns.form_values(g)):
            return OpenCone(tuple(gens))


def _random_function(rng, n):
    f = TestFunction(n)
    for _ in range(rng.randint(1, 2)):
        L = tuple(
            tuple(F(rng.randint(1, 3)) if i == j else F(0) for j in range(n))
            for i in range(n)
        )
        o = tuple(F(rng.randint(0, 2), rng.choice([1, 2])) for _ in range(n))
        f = f + lattice_indicator(L, offset=o).scale(rng.choice([-1, 1, 2]))
    return f


def test_closed_form_matches_series_route():
    # norms: std in dims 1-3 and quadratic; cones: rays and full cones
    rng = random.Random(3301)
    setups = [(std_norm(n), kmax) for n, kmax in ((1, 3), (2, 3), (3, 1))]
    setups += [(quadratic_norm(D), 3) for D in (2, 5, 13)]
    checked = 0
    for ns, kmax in setups:
        n = ns.n
        for r in sorted({1, n}):
            f = _random_function(rng, n)
            cone = _random_cone(rng, ns, r)
            shortcuts = (True, False) if ns.kind == "quadratic" else (True,)
            for shortcut in shortcuts:
                # the unshortened series route is slow above k = 2
                ks = range(kmax + 1 if shortcut else min(kmax, 2) + 1)
                fast = special_value(f, cone, ks, ns, shortcut)
                slow = _special_value_series(f, cone, ks, ns, shortcut)
                assert fast == slow, (ns.kind, n, cone, shortcut)
                checked += len(ks)
    assert checked == 58


# k-lists in any order, with repeats
K_LISTS = st.lists(st.integers(0, 3), min_size=1, max_size=5)

CLOSED_FORM_NORMS = [std_norm(1), std_norm(2), std_norm(3)] + [
    quadratic_norm(D) for D in (2, 3, 5, 13)
]


@given(
    ns=st.sampled_from(CLOSED_FORM_NORMS),
    seed=st.integers(0, 2**16),
    ks=K_LISTS,
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_fraction_reference(ns, seed, ks, data):
    # the integer tables, built once at max(ks), against the reduced
    # QuadScalar closed form of helpers with its own Bernoulli sums, for
    # every slice i and every k of an unsorted k-list with repeats
    n = ns.n
    r = data.draw(st.integers(1, n), label="r")
    rng = random.Random(seed)
    f, cone = _random_function(rng, n), _random_cone(rng, ns, r)
    G = build_G(f, cone, ns)
    assume(G.points)
    S = bernoulli_sums_reference(G.points, r, [n * k + r for k in ks])
    want = {k: [closed_form_reference(G, i, k, S) for i in range(n)] for k in ks}
    assert _closed_form_slices(G, ks, range(n)) == want

K_LIST_CASES = {
    "1-D ray": (lattice_indicator(((3,),), offset=(1,)), RAY, None),
    "2-D std": (
        lattice_indicator(((2, 1), (0, 3)), offset=(F(1, 2), F(1, 3))),
        OpenCone(((2, 1), (1, 3))),
        None,
    ),
    "D=5 fan": (
        zn_indicator(2),
        ConeFunction(
            [
                (F(1), OpenCone(((F(1), F(0)), (F(1), F(1))))),
                (F(1), OpenCone(((F(1), F(0)),))),
            ]
        ),
        quadratic_norm(5),
    ),
}


@pytest.mark.parametrize("case", sorted(K_LIST_CASES))
@given(ks=K_LISTS)
@settings(max_examples=10, deadline=None)
def test_k_list_matches_one_k_at_a_time(case, ks):
    f, cone, ns = K_LIST_CASES[case]
    values = special_value(f, cone, ks, ns)
    assert values == [special_value(f, cone, [k], ns)[0] for k in ks]
    assert values == _special_value_series(f, cone, ks, ns)


@given(ks=K_LISTS)
@settings(max_examples=10, deadline=None)
def test_k_list_of_starred_class_value(ks):
    F5 = RealQuadraticField(5)
    O = o_ideal(F5)
    c11 = prime_above(F5, 11)[0]
    values = exact_ray_class_zeta(F5, O, 1, ks, smoothing=c11, star_at=3)
    one_at_a_time = [
        exact_ray_class_zeta(F5, O, 1, [k], smoothing=c11, star_at=3)[0] for k in ks
    ]
    assert values == one_at_a_time


def test_two_route_selftest_reads_live_bernoulli_numbers():
    saved = list(exact_core._BERNOULLI_CACHE)
    try:
        assert selftest.check_zeta_two_route()[0]
        selftest.tamper_bernoulli()
        ok, detail = selftest.check_zeta_two_route()
        assert not ok
        assert "k=11" in detail
    finally:
        exact_core._BERNOULLI_CACHE[:] = saved
    assert bernoulli_number(12) == F(-691, 2730)


@pytest.mark.parametrize("route", [special_value, _special_value_series])
@pytest.mark.parametrize("cone", sorted(K_LIST_CASES))
def test_empty_k_list_gives_no_values(route, cone, monkeypatch):
    # one value per k: none for no k, and no cone is enumerated for it
    f, kappa, ns = K_LIST_CASES[cone]

    def refuse(*args):
        raise AssertionError("enumerated a cone for an empty k-list")

    monkeypatch.setattr(shintani_zeta, "build_G", refuse)
    assert route(f, kappa, [], ns) == []


@st.composite
def bernoulli_sums_cases(draw):
    """Integer quadruples (x, (q, *T), k, f-part) with mixed denominators
    q, t_j in [0, 1] (open and closed ranges), tiles k_j = 1-3 (1-2 at
    r = 3) on one or two classes, values of both signs, r = 1-3, and a
    list of |mu| with repeats."""
    r = draw(st.integers(1, 3))
    tile = st.tuples(*[st.integers(1, 3 if r < 3 else 2)] * r)
    tiles = draw(st.lists(tile, min_size=1, max_size=2))
    points = []
    for i in range(draw(st.integers(1, 6))):
        q = draw(st.sampled_from([1, 2, 3, 4, 6]))
        T = tuple(draw(st.integers(0, q)) for _ in range(r))
        val = F(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
        points.append(((1, i + 1), (q, *T), draw(st.sampled_from(tiles)), val))
    Ns = draw(st.lists(st.integers(r, r + 6), min_size=1, max_size=4))
    return points, r, Ns


@given(bernoulli_sums_cases())
@settings(max_examples=60, deadline=None)
def test_bernoulli_sums_match_fraction_reference(case):
    # the Raabe weights of each tile class against its replicas written out
    points, r, Ns = case
    den, sums = _bernoulli_sums(points, r, Ns)
    assert {mu: F(s, den) for mu, s in sums.items()} == bernoulli_sums_reference(points, r, Ns)
