import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shintani_kit._linalg import det
from shintani_kit.cones import ConeFunction, GLTuple, OpenCone, hill_cone_function
from shintani_kit.errors import (
    DegenerateTuple,
    GuardTripped,
    NonUnitScaling,
    OutOfCaps,
    PoleDetected,
    PrecisionExhausted,
    RouteDisagreement,
    SingularMatrix,
)
from shintani_kit.exact_core import TruncSeries
from shintani_kit.padic_measures import (
    KubotaLeopoldt,
    PadicScalar,
    PseudoMeasure,
    _stirling_rows,
    amice_expand,
    amice_of_cone_function,
    evaluate_at_s,
    is_measure,
    kubota_leopoldt,
    moment,
    polynomial_moment,
    pseudo_from_cone,
    pushforward_norm,
    teichmuller,
)
from shintani_kit.real_quadratic_fields import (
    RealQuadraticField,
    field_padic_L,
    o_ideal,
    prime_above,
)
from shintani_kit.selftest import check_kubota_leopoldt
from shintani_kit.shintani_zeta import special_value
from shintani_kit.test_functions import (
    PLevelSet,
    full_level_set,
    lattice_indicator,
    tensor_at_p,
    zn_indicator,
)

from helpers import _numerator_coordinates as numerator_coordinates_by_inverse
from helpers import _pfrac, _piece_vanishes_on_axes
from helpers import amice_reference, congruent_to, evaluate_at_s_reference, replicated
from helpers import pushforward_by_newton_box, theta_moment
from oracles import hurwitz_special_value


def smoothed_1d(ell, p):
    return zn_indicator(1, away_from=p) - lattice_indicator(((ell,),), away_from=p).scale(ell)


# index-2 sublattice Z x 2Z misses every direction with odd second entry
def smoothed_2d_even(p):
    return zn_indicator(2, away_from=p) - lattice_indicator(((1, 0), (0, 2)), away_from=p).scale(2)


# index-3 sublattice {v1 + v2 = 0 mod 3}, columns (1,2) and (0,3)
def smoothed_2d_mod3(p):
    return zn_indicator(2, away_from=p) - lattice_indicator(((1, 0), (2, 3)), away_from=p).scale(3)


def cone_of(*gens):
    return OpenCone(tuple(tuple(F(x) for x in g) for g in gens))


# ---------------------------------------------------------------------------
# the classical one-variable measure


def test_kl_pseudo_data():
    # Z on the tile 1 = 2/2 and 2Z at 2; written out, Z's replicas are 1
    # and 2, so the numerator is q - q^2 over 1 - q^2
    kl = kubota_leopoldt(3, 2)
    assert kl.pseudo.numerator == (
        ((F(1),), F(1)),
        ((F(2),), F(-2)),
    )
    assert kl.pseudo.tiles == ((2,), (1,))
    assert kl.pseudo.denoms == ((F(2), (1,)),)
    assert replicated(kl.pseudo).numerator == (((F(1),), F(1)), ((F(2),), F(-1)))


def test_kl_mass_and_first_moment():
    kl = kubota_leopoldt(3, 2)
    assert kl.mass() == F(1, 2)
    assert kl.moment(1) == F(1, 4)


def test_kl_amice_closed_form():
    # (1+T)/(2+T) = 1/2 + sum_{k>=1} (-1)^(k+1) T^k / 2^(k+1)
    kl = kubota_leopoldt(3, 2, caps=(8,))
    assert kl.series.coeff((0,)) == F(1, 2)
    for k in range(1, 9):
        assert kl.series.coeff((k,)) == F((-1) ** (k + 1), 2 ** (k + 1))


def test_kl_moments_equal_smoothed_zeta_exactly():
    for p, ell in [(3, 2), (5, 2), (7, 4), (5, 6)]:
        kl = kubota_leopoldt(p, ell, caps=(8,))
        for k in range(6):
            want = (1 - F(ell) ** (k + 1)) * hurwitz_special_value(1, 1, k)
            assert kl.moment(k) == want


def test_kl_unit_moments_remove_euler_factor():
    for p, ell in [(3, 2), (5, 2)]:
        kl = kubota_leopoldt(p, ell, caps=(8,))
        for k in range(5):
            want = (1 - F(ell) ** (k + 1)) * (1 - F(p) ** k) * hurwitz_special_value(1, 1, k)
            assert kl.unit_moment(k) == want


def test_kl_rejects_bad_smoothing():
    with pytest.raises(ValueError):
        kubota_leopoldt(3, 6)
    with pytest.raises(ValueError):
        kubota_leopoldt(3, 1)


class _Replay:
    """The random source of selftest.check_kubota_leopoldt, replaying
    scripted draws and checking each lies where the check draws from."""

    def __init__(self, draws):
        self.draws = list(draws)

    def choice(self, seq):
        x = self.draws.pop(0)
        assert x in seq
        return x

    def randrange(self, start, stop):
        x = self.draws.pop(0)
        assert start <= x < stop
        return x


def test_kummer_congruences_on_unit_moments():
    # for k1 = k2 mod (p-1)p^j with k1, k2 not divisible by p-1, the unit
    # moments agree mod p^(j+1): each case replayed through the shared check
    # as its draws p, k1, j and r, k2 = k1 + (p-1) p^j r
    cases = [
        (3, 2, 1, 3), (3, 2, 1, 5), (3, 2, 3, 5), (3, 2, 5, 7), (3, 2, 3, 9),
        (3, 2, 1, 7), (3, 2, 5, 11), (5, 2, 1, 5), (5, 2, 3, 7), (7, 2, 1, 7),
    ]
    assert len(cases) >= 10
    draws = []
    for p, ell, k1, k2 in cases:
        assert ell == 2 and k1 % (p - 1) == k2 % (p - 1) and k1 % (p - 1) != 0
        step = (k2 - k1) // (p - 1)
        j = 0
        while step % p == 0:
            step //= p
            j += 1
        draws += [p, k1, j, step]
    # caps 12, and 13 at p = 3: the shared check keeps k2 <= caps - 2
    kls = {p: kubota_leopoldt(p, 2, caps=(13 if p == 3 else 12,)) for p in (3, 5, 7)}
    rng = _Replay(draws)
    ok, detail = check_kubota_leopoldt(kls, rng, len(cases))
    assert ok, detail
    assert not rng.draws  # no case skipped


# ---------------------------------------------------------------------------
# point masses and elementary transforms


def test_dirac_amice_expansion():
    d3 = PseudoMeasure(p=5, m=0, n=1, numerator=(((F(3),), F(1)),), denoms=())
    A = amice_expand(d3, (6,))
    assert sorted(A.coeffs.items()) == [
        ((0,), F(1)), ((1,), F(3)), ((2,), F(3)), ((3,), F(1)),
    ]


@pytest.mark.parametrize(
    "pm",
    [
        PseudoMeasure(p=5, m=0, n=1, numerator=(((F(1, 5),), F(1)),), denoms=()),
        PseudoMeasure(
            p=3,
            m=1,
            n=2,
            numerator=(((F(1), F(2, 3)), F(1)), ((F(4), F(11, 3)), F(-1))),
            denoms=((F(1), (3, 3)),),
        ),
    ],
)
def test_amice_expand_refuses_an_offset_off_the_p_integers(pm):
    # an exponent that is not p-integral leaves D w = D r / p^J off the
    # integers; both routes refuse it rather than drop its fractional part
    for expand in (amice_expand, amice_reference):
        with pytest.raises(ArithmeticError, match="not p-integral"):
            expand(pm, (2,) * pm.n)


def test_dirac_second_moment():
    d3 = PseudoMeasure(p=5, m=0, n=1, numerator=(((F(3),), F(1)),), denoms=())
    A = amice_expand(d3, (6,))
    assert moment(A, (2,)) == 9
    assert polynomial_moment(A, {(2,): 1, (0,): -4}) == 5


def test_mahler_coefficient_access():
    d3 = PseudoMeasure(p=5, m=0, n=1, numerator=(((F(3),), F(1)),), denoms=())
    A = amice_expand(d3, (6,))
    # the Mahler coefficient C(3, 2) of the point mass at 3
    assert A.coeff((2,)) == 3


def test_moment_out_of_caps():
    d3 = PseudoMeasure(p=5, m=0, n=1, numerator=(((F(3),), F(1)),), denoms=())
    A = amice_expand(d3, (4,))
    with pytest.raises(OutOfCaps):
        moment(A, (5,))


def test_stirling_rows_match_explicit_formula():
    # b! S(a, b) = sum_i (-1)^(b-i) C(b, i) i^a counts surjections a -> b
    want = [
        [sum((-1) ** (b - i) * math.comb(b, i) * i ** a for i in range(b + 1))
         for b in range(a + 1)]
        for a in range(7)
    ]
    assert list(_stirling_rows(7)) == want
    assert want[4] == [0, 1, 14, 36, 24]


small_fraction = st.builds(F, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def series_under_caps(draw):
    caps = draw(st.one_of(
        st.tuples(st.integers(0, 32)),
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
    ))
    box = list(itertools.product(*(range(cap + 1) for cap in caps)))
    keys = draw(st.lists(st.sampled_from(box), max_size=len(box), unique=True))
    return TruncSeries(caps, {e: draw(small_fraction) for e in keys})


@given(series_under_caps())
@settings(max_examples=40, deadline=None)
def test_moment_matches_theta_route(series):
    for alpha in itertools.product(*(range(cap + 1) for cap in series.caps)):
        assert moment(series, alpha) == theta_moment(series, alpha)


def test_pushforward_of_point_mass_along_product():
    d23 = PseudoMeasure(
        p=5, m=0, n=2, numerator=(((F(2), F(3)), F(1)),), denoms=()
    )
    A = amice_expand(d23, (8, 8))
    nu = pushforward_norm(A, {(1, 1): 1}, 5)
    for j in range(5):
        assert nu.coeff((j,)) == math.comb(6, j)


def test_pushforward_precision_guard():
    d23 = PseudoMeasure(
        p=5, m=0, n=2, numerator=(((F(2), F(3)), F(1)),), denoms=()
    )
    A = amice_expand(d23, (4, 4))
    with pytest.raises(PrecisionExhausted):
        pushforward_norm(A, {(1, 1): 1}, 4)


def test_pushforward_linearity_against_moments():
    # moments of the image measure are the matching moments of the source
    f = smoothed_2d_even(3)
    cone = cone_of((1, 1), (2, 1))
    U = full_level_set(3, 2)
    A = amice_expand(pseudo_from_cone(f, cone, U), (8, 8))
    norm = {(2, 0): 1, (1, 1): 3, (0, 2): 1}
    nu = pushforward_norm(A, norm, 5)
    for k in range(3):
        # N^k as a polynomial in x, then as the k-th moment downstairs
        poly = {(0, 0): F(1)}
        for _ in range(k):
            nxt = {}
            for e, c in poly.items():
                for ne, nc in norm.items():
                    key = (e[0] + ne[0], e[1] + ne[1])
                    nxt[key] = nxt.get(key, F(0)) + c * nc
            poly = nxt
        assert moment(nu, (k,)) == polynomial_moment(A, poly)


def test_pushforward_matches_newton_box_on_an_indefinite_norm():
    # x^2 + xy - y^2 is negative on part of the grid, where C(N, j) has
    # negative upper index
    f = smoothed_2d_even(5)
    A = amice_expand(pseudo_from_cone(f, cone_of((1, 1), (2, 1)), full_level_set(5, 2)), (8, 8))
    norm = {(2, 0): 1, (1, 1): 1, (0, 2): -1}
    for count in (1, 3, 5):
        ref = pushforward_by_newton_box(A, norm, count)
        assert ref.coeffs
        assert pushforward_norm(A, norm, count).coeffs == ref.coeffs


def test_pushforward_refuses_fractional_norm():
    d23 = PseudoMeasure(p=5, m=0, n=2, numerator=(((F(2), F(3)), F(1)),), denoms=())
    A = amice_expand(d23, (4, 4))
    with pytest.raises(ValueError):
        pushforward_norm(A, {(2, 0): F(1, 2), (1, 0): F(1, 2)}, 3)


# ---------------------------------------------------------------------------
# the expansion against the full-box reference route


@st.composite
def cone_pseudo_measures(draw):
    """pseudo_from_cone of [Z^n] - c[L + a] on a small cone and level set:
    c = [Z^n : L] smooths, c + 1 does not; m = 1 gives pieces of nonzero
    offset w, and a one-generator cone in dimension 2 has r < n."""
    n = draw(st.sampled_from((1, 2)))
    p = draw(st.sampled_from((3, 5, 7)))
    ell = draw(st.sampled_from([x for x in (2, 3, 4) if x % p]))
    if n == 1:
        lattice, offset = ((ell,),), (draw(st.integers(0, ell - 1)),)
        gens = [(draw(st.integers(1, 3)),)]
        caps = (draw(st.integers(0, 32)),)
    else:
        lattice = ((1, 0), (draw(st.integers(0, 1)), ell))
        offset = (0, draw(st.integers(0, ell - 1)))
        gens = draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 2)), min_size=1, max_size=2, unique=True
        ))
        if len(gens) == 2 and gens[0][0] * gens[1][1] == gens[0][1] * gens[1][0]:
            gens = gens[:1]
        caps = draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
    weight = ell + draw(st.sampled_from((0, 1)))
    f = zn_indicator(n, away_from=p) - lattice_indicator(
        lattice, offset, away_from=p
    ).scale(weight)
    if draw(st.booleans()):
        U = full_level_set(p, n)
    else:
        point = st.tuples(*[st.integers(0, p - 1)] * n)
        U = PLevelSet(p, 1, n, tuple(draw(st.lists(point, min_size=1, max_size=2))))
    return pseudo_from_cone(f, cone_of(*gens), U), caps


@given(cone_pseudo_measures())
@settings(max_examples=40, deadline=None)
def test_pseudo_from_cone_numerator_is_sorted_fractions(case):
    # PseudoMeasure stores its numerator as given: pseudo_from_cone hands
    # it the (x, f-part) pairs strictly sorted by (x, tile), every entry a
    # Fraction, and one tile per pair
    pm, _ = case
    keys = [(e, k) for (e, _), k in zip(pm.numerator, pm.tiles)]
    assert len(keys) == len(pm.numerator)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(type(v) is F for e, c in pm.numerator for v in (*e, c))


def _expansion_or_refusal(expand, pm, caps):
    try:
        return expand(pm, caps).coeffs
    except (PoleDetected, GuardTripped, SingularMatrix) as exc:
        return type(exc)


# a non-measure whose obstruction lies above the truncation at caps (0, 0)
_HIDDEN_POLE = PseudoMeasure(
    p=5,
    m=1,
    n=2,
    numerator=(((F(5), F(6)), F(1)), ((F(5), F(11)), F(-2)), ((F(5), F(16)), F(1))),
    denoms=((F(3), (0, 5)), (F(1), (5, 5))),
)


@given(cone_pseudo_measures())
@example((_HIDDEN_POLE, (0, 0)))
@settings(max_examples=60, deadline=None)
def test_amice_expand_matches_full_box_reference(case):
    pm, caps = case
    got = _expansion_or_refusal(amice_expand, pm, caps)
    assert got == _expansion_or_refusal(amice_reference, pm, caps)
    if not pm._divisible:
        assert got is PoleDetected


@pytest.mark.parametrize(
    "U", [full_level_set(5, 2), PLevelSet(5, 1, 2, ((1, 2),)), PLevelSet(5, 2, 2, ((4, 7),))]
)
def test_integer_adjugate_coordinates_match_inverse(U):
    # exponents with denominators 2 and 3, so the common denominator of
    # each point enters; the amice test above sees integer exponents only
    f = lattice_indicator(((2, 1), (0, 3)), offset=(F(1, 2), F(1, 3)), away_from=5)
    pm = pseudo_from_cone(f, cone_of((2, 1), (1, 3)), U)
    assert any(x.denominator > 1 for e, _ in pm.numerator for x in e)
    D, Q, cden, terms = pm._coordinates
    want_D, want = numerator_coordinates_by_inverse(pm)
    assert D == want_D
    assert [(F(c, cden), tuple(F(x, Q) for x in N)) for c, N in terms] == want


def _reference_pieces(pm):
    """The pieces by the Fraction p-fractional part w of D^-1 v, mu = D^-1 v - w,
    each term with its tile."""
    pieces: dict = {}
    for (c, coords), k in zip(numerator_coordinates_by_inverse(pm)[1], pm.tiles):
        w = tuple(_pfrac(x, pm.p) for x in coords)
        pieces.setdefault(w, []).append((c, tuple(x - wx for x, wx in zip(coords, w)), k))
    return pieces


def _check_integer_pieces(pm):
    _, Q, cden, _ = pm._coordinates
    pj = pm.p ** next(j for j in itertools.count() if Q % pm.p ** (j + 1))
    read = {
        tuple(F(x, pj) for x in res): sorted(
            (F(c, cden), tuple(F(x, Q) for x in mu), k)
            for k, terms in classes.items() for c, mu in terms)
        for res, classes in pm._pieces.items()
    }
    want = _reference_pieces(pm)
    assert read == {w: sorted(terms) for w, terms in want.items()}
    assert [tuple(F(x, pj) for x in r) for r in sorted(pm._pieces)] == sorted(want)
    # the verdict on the tiles is the reference's on the replicas
    flat = _reference_pieces(replicated(pm)).values()
    assert pm._divisible == all(
        _piece_vanishes_on_axes([(c, mu) for c, mu, _ in t], pm.r) for t in flat)


@st.composite
def fractional_pseudo_measures(draw):
    """pseudo_from_cone of [Z^n] + c[L + a] with a random lattice L of
    p-unit index, offsets over 1, 2 or 3 (prime to p), a random cone of
    one or n generators in either order, and a level set at m = 0 or 1."""
    n = draw(st.sampled_from((1, 2)))
    p = draw(st.sampled_from((3, 5, 7)))
    # lower triangular, with p-unit diagonal entries
    diag = st.sampled_from([x for x in (1, -1, 2, -2, 3, 4) if x % p])
    L = [[draw(diag) if i == j else draw(st.integers(-2, 2)) if i > j else 0 for j in range(n)]
         for i in range(n)]
    dens = [d for d in (1, 2, 3) if d != p]
    offset = tuple(F(draw(st.integers(0, 5)), draw(st.sampled_from(dens))) for _ in range(n))
    weight = draw(st.sampled_from((-abs(det(L)), -abs(det(L)) - 1, 1)))
    f = zn_indicator(n, away_from=p) + lattice_indicator(L, offset, away_from=p).scale(weight)
    gen = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    gens = draw(st.lists(gen, min_size=1, max_size=n, unique=True))
    if len(gens) == 2 and gens[0][0] * gens[1][1] == gens[0][1] * gens[1][0]:
        gens = gens[:1]
    m = draw(st.sampled_from((0, 1)))
    point = st.tuples(*[st.integers(0, p**m - 1)] * n)
    U = PLevelSet(p, m, n, tuple(draw(st.lists(point, min_size=1, max_size=2, unique=True))))
    return pseudo_from_cone(f, cone_of(*gens), U)


@given(fractional_pseudo_measures())
@settings(max_examples=60, deadline=None)
def test_integer_pieces_match_fraction_pieces(pm):
    # the residue tuples r and integer mu over Q, read as r/p^J and mu/Q,
    # are the reference's Fraction pieces, in the same order, and the
    # integer divisibility verdict is the reference's on every piece
    _check_integer_pieces(pm)


def test_integer_pieces_with_negative_determinant_and_fractional_exponents():
    # the 2-D golden measure config: exponents over 2 and 3, det D = -125
    a = (F(1, 2), F(1, 3))
    f = lattice_indicator(((1, 0), (0, 1)), a, away_from=5) - lattice_indicator(
        ((1, 0), (0, 2)), a, away_from=5
    ).scale(2)
    pm = pseudo_from_cone(f, cone_of((1, 3), (2, 1)), PLevelSet(5, 1, 2, ((1, 2), (3, 4))))
    assert det(pm._coordinates[0]) < 0
    assert {x.denominator for e, _ in pm.numerator for x in e} == {2, 3}
    assert len(pm._pieces) > 1 and pm._divisible
    _check_integer_pieces(pm)


@st.composite
def nested_pseudo_measures(draw):
    """pseudo_from_cone of two smoothings [L] - [L : L'][L'] on the chain
    Z^n > L_l1 > L_l1l2, L_a = {x : x_n = 0 mod a}, on a cone whose
    generators have last coordinate 1, so that the three terms sit on three
    tiles, a_j / k_j = 1, l1 and l1 l2 along each generator; a weight off by
    one makes it a non-measure."""
    n = draw(st.sampled_from((1, 2)))
    p = draw(st.sampled_from((3, 5, 7)))
    l1, l2 = (draw(st.sampled_from([x for x in (2, 3, 4) if x % p])) for _ in range(2))

    def lattice(a):
        diag = (1,) * (n - 1) + (a,)
        return tuple(tuple(d if i == j else 0 for j in range(n)) for i, d in enumerate(diag))

    f = zn_indicator(n, away_from=p) + lattice_indicator(lattice(l1), away_from=p).scale(
        1 - l1) - lattice_indicator(lattice(l1 * l2), away_from=p).scale(
        l2 + draw(st.sampled_from((0, 0, 1))))
    gens = [(1,)] if n == 1 else [(1, 1), (draw(st.sampled_from((0, 2))), 1)]
    m = draw(st.sampled_from((0, 1)))
    U = PLevelSet(p, m, n, (tuple(draw(st.integers(0, p**m - 1)) for _ in range(n)),))
    return pseudo_from_cone(f, cone_of(*gens), U)


@given(st.one_of(cone_pseudo_measures().map(lambda case: case[0]), fractional_pseudo_measures(),
                 nested_pseudo_measures()),
       st.data())
@settings(max_examples=80, deadline=None)
def test_tiled_measure_matches_its_replicated_numerator(pm, data):
    # a tile class stands for its replicas: the same verdict and the same
    # expansion as the untiled numerator written out replica by replica
    caps = data.draw(st.tuples(*[st.integers(0, 6)] * pm.n), label="caps")
    flat = replicated(pm)
    assert pm._divisible == flat._divisible
    assert _expansion_or_refusal(amice_expand, pm, caps) == _expansion_or_refusal(
        amice_expand, flat, caps)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kubota_leopoldt_components_match_reference(p):
    kl = kubota_leopoldt(p, 2, caps=(32,))
    assert kl.series.coeffs == amice_reference(kl.pseudo, (32,)).coeffs
    f = smoothed_1d(2, p)
    for b, ser in kl.components.items():
        pm = pseudo_from_cone(f, cone_of((1,)), PLevelSet(p, 1, 1, ((b,),)))
        assert ser.coeffs == amice_reference(pm, (32,)).coeffs


# ---------------------------------------------------------------------------
# measure criterion


def _judge(f, cone, U):
    return is_measure(f, cone, pseudo_from_cone(f, cone, U))


def test_is_measure_accepts_smoothed_and_rejects_plain():
    cone = cone_of((1,))
    U = full_level_set(3, 1)
    assert _judge(smoothed_1d(2, 3), cone, U) is True
    bad = zn_indicator(1, away_from=3) - lattice_indicator(((2,),), away_from=3).scale(3)
    assert _judge(bad, cone, U) is False


def test_is_measure_dim2_direction_sensitivity():
    # [Z^2] - 2[2Z x Z] vanishes along (1,1) lines but not (2,1) lines
    f = zn_indicator(2, away_from=3) - lattice_indicator(
        ((2, 0), (0, 1)), away_from=3
    ).scale(2)
    U = full_level_set(3, 2)
    assert _judge(f, cone_of((1, 1), (1, 2)), U) is True
    assert _judge(f, cone_of((1, 1), (2, 1)), U) is False


def test_route_disagreement_is_raised_not_hidden():
    # rank 1 cone in dimension 2 with a shifted level set: the numerator is
    # empty (grouping route says measure) while line masses do not vanish
    f = zn_indicator(2, away_from=3)
    U = PLevelSet(3, 1, 2, ((1, 1),))
    with pytest.raises(RouteDisagreement):
        _judge(f, cone_of((1, 0)), U)


def test_randomized_route_agreement_full_rank():
    rng = random.Random(20240815)
    seen = set()
    runs = 0
    while runs < 14:
        p = rng.choice([3, 5, 7])
        n = rng.choice([1, 2])
        ell = rng.choice([2, 3, 4])
        if ell % p == 0:
            continue
        if n == 1:
            f = smoothed_1d(ell, p) if rng.random() < 0.5 else (
                zn_indicator(1, away_from=p)
                - lattice_indicator(((ell,),), away_from=p).scale(ell + 1)
            )
            gens = [(rng.randint(1, 3),)]
        else:
            lat = ((1, 0), (rng.randint(0, 1), ell))
            c = ell if rng.random() < 0.5 else ell + 1
            if c % p == 0:
                continue
            f = zn_indicator(2, away_from=p) - lattice_indicator(lat, away_from=p).scale(c)
            g1 = (rng.randint(1, 3), rng.randint(1, 3))
            g2 = (rng.randint(1, 3), rng.randint(1, 3))
            if g1[0] * g2[1] == g1[1] * g2[0]:
                continue
            gens = [g1, g2]
        m = rng.choice([0, 1])
        if m == 0:
            U = full_level_set(p, n)
        else:
            U = PLevelSet(p, 1, n, (tuple(rng.randrange(p) for _ in range(n)),))
        verdict = _judge(f, cone_of(*gens), U)
        seen.add(verdict)
        runs += 1
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the central identity: theta moments of the expansion are the exact
# special values of the matching cone zeta function


def test_moment_identity_dim1():
    f = smoothed_1d(2, 3)
    cone = cone_of((1,))
    A = amice_expand(pseudo_from_cone(f, cone, full_level_set(3, 1)), (8,))
    assert [moment(A, (k,)) for k in range(6)] == special_value(f, cone, range(6))


def test_moment_identity_dim2_full_level():
    f = smoothed_2d_even(3)
    U = full_level_set(3, 2)
    for gens in [((1, 1), (2, 1)), ((1, 1), (1, 3)), ((3, 1), (1, 1))]:
        cone = cone_of(*gens)
        pm = pseudo_from_cone(f, cone, U)
        assert is_measure(f, cone, pm) is True
        A = amice_expand(pm, (8, 8))
        assert [moment(A, (k, k)) for k in range(4)] == special_value(f, cone, range(4))


def test_moment_identity_dim2_deeper_levels():
    f = smoothed_2d_even(3)
    cone = cone_of((1, 1), (2, 1))
    for U in [
        PLevelSet(3, 1, 2, ((1, 2),)),
        PLevelSet(3, 1, 2, ((0, 1), (2, 2))),
        PLevelSet(3, 2, 2, ((4, 7),)),
    ]:
        A = amice_expand(pseudo_from_cone(f, cone, U), (6, 6))
        ft = tensor_at_p(f, U)
        assert [moment(A, (k, k)) for k in range(3)] == special_value(ft, cone, range(3))


def test_moment_identity_other_prime():
    f = smoothed_2d_even(7)
    cone = cone_of((1, 1), (2, 1))
    A = amice_expand(pseudo_from_cone(f, cone, full_level_set(7, 2)), (6, 6))
    assert [moment(A, (k, k)) for k in range(3)] == special_value(f, cone, range(3))


# ---------------------------------------------------------------------------
# guards


def test_nonunit_scaling_guard():
    with pytest.raises(NonUnitScaling):
        PseudoMeasure(
            p=3, m=0, n=1, numerator=(((F(1),), F(1)),), denoms=((F(3), (1,)),)
        )


def test_pole_detected_on_unsmoothed_input():
    bad = zn_indicator(1, away_from=3) - lattice_indicator(((2,),), away_from=3).scale(3)
    pm = pseudo_from_cone(bad, cone_of((1,)), full_level_set(3, 1))
    with pytest.raises(PoleDetected):
        amice_expand(pm, (6,))


def test_completion_valuation_guard():
    pm = PseudoMeasure(
        p=3, m=0, n=2,
        numerator=(((F(3 ** 7), F(0)), F(1)), ((F(2 * 3 ** 7), F(0)), F(-1))),
        denoms=((F(1), (3 ** 7, 0)),),
    )
    with pytest.raises(GuardTripped):
        amice_expand(pm, (4, 4))


# ---------------------------------------------------------------------------
# evaluation at p-adic arguments


def test_teichmuller_character():
    for p, M in [(3, 8), (5, 6), (7, 5)]:
        for b in range(1, p):
            w = teichmuller(b, p, M)
            assert w % p == b % p
            assert pow(w, p - 1, p ** M) == 1


def test_evaluate_at_s_interpolates_unit_moments():
    kl = kubota_leopoldt(3, 2, caps=(8,))
    for k in range(1, 4):
        val = kl.value_at(-k, twist=k, M=8)
        assert val.guard == 0
        assert congruent_to(val, kl.unit_moment(k))


def test_evaluate_at_s_guard_accounting():
    kl = kubota_leopoldt(3, 2, caps=(8,))
    val = evaluate_at_s(kl.components, 3, 8, -1, twist=1, count=4)
    assert val.precision == 4 and val.guard == 4
    assert congruent_to(val, kl.unit_moment(1))


def test_evaluate_at_s_rejects_non_integral_argument():
    kl = kubota_leopoldt(3, 2, caps=(8,))
    with pytest.raises(ValueError):
        kl.value_at(F(1, 3))


@functools.cache
def _measure(name):
    """The measures the cached rows are checked on, built once."""
    if name == "field5":
        F5 = RealQuadraticField(5)
        return field_padic_L(F5, o_ideal(F5), prime_above(F5, 11)[0], 3, count=5)
    return kubota_leopoldt(int(name[2:]), 2, caps=(12,))


# largest count each measure's component caps allow
_MAX_COUNT = {"kl3": 13, "kl5": 13, "kl7": 13, "field5": 5}

_CALL = st.tuples(
    st.integers(0, 1),  # which measure of the pair
    st.integers(-40, 40),  # s = a / d, with d prime to p
    st.integers(1, 12),
    st.integers(-3, 13),  # twist
    st.integers(1, 10),  # M
    st.none() | st.integers(0, 13),  # count, cut to the measure's caps
)


@settings(max_examples=40, deadline=None)
@given(
    pair=st.sampled_from([("kl3", "kl5"), ("kl7", "field5"), ("field5", "kl3"), ("kl5", "kl7")]),
    calls=st.lists(_CALL, min_size=2, max_size=6),
)
def test_value_at_matches_the_per_s_reference(pair, calls):
    # calls on two measures interleave over the shared row caches, and the
    # first s comes back at another M and count
    which, a, d, twist, M, count = calls[0]
    again = 1 if count is None else (min(count, _MAX_COUNT[pair[which]]) + 1) % 6
    for which, a, d, twist, M, count in calls + [(which, a, d, twist, M % 10 + 1, again)]:
        meas = _measure(pair[which])
        s = F(a, d if d % meas.p else 1)
        if count is not None:
            count = min(count, _MAX_COUNT[pair[which]])
        if isinstance(meas, KubotaLeopoldt):
            got = meas.value_at(s, twist=twist, M=M, count=count)
        elif count is None:
            got, count = meas.value_at(s, twist=twist, M=M), meas.count
        else:
            got = evaluate_at_s(meas.components, meas.p, M, s, twist, count)
        assert got == evaluate_at_s_reference(meas.components, meas.p, M, s, twist, count)


def test_padic_scalar_congruences():
    x = PadicScalar(p=3, M=5, guard=1, residue=7)
    assert x.precision == 4 and x.modulus == 81
    assert congruent_to(x, 7) and congruent_to(x, 7 + 81)
    assert not congruent_to(x, 7 + 27)
    assert not congruent_to(x, F(1, 3))


# ---------------------------------------------------------------------------
# cone functions, degenerate pairs


def test_amice_of_cone_function_is_additive():
    f = smoothed_2d_even(3)
    U = full_level_set(3, 2)
    c1 = cone_of((1, 1), (2, 1))
    c2 = cone_of((1, 1))
    kappa = ConeFunction([(F(1), c1), (F(-2), c2)], F(0))
    total = amice_of_cone_function(f, kappa, U, (5, 5))
    direct = (
        amice_expand(pseudo_from_cone(f, c1, U), (5, 5))
        - amice_expand(pseudo_from_cone(f, c2, U), (5, 5)).scale(F(2))
    )
    assert total.coeffs == direct.coeffs
    with pytest.raises(ValueError):
        amice_of_cone_function(f, ConeFunction([(F(1), c1)], F(1)), U, (4, 4))


def pair_transform(f, U, alpha, beta, caps=(5, 5)):
    """Transform of the measure of the non-degenerate pair (alpha, beta)."""
    return amice_of_cone_function(f, hill_cone_function(GLTuple((alpha, beta))), U, caps)


def test_degenerate_resolution_is_auxiliary_independent():
    # the degenerate pair (a1, a2) resolved through an auxiliary matrix g:
    # the pair measures (a1, g) - (a2, g) agree for two choices of g up to
    # a multiple of the point mass at the origin
    f = smoothed_2d_mod3(5)
    U = full_level_set(5, 2)
    a1 = ((1, 0), (0, 1))
    a2 = ((2, 1), (0, 1))
    s1, s2 = (
        pair_transform(f, U, a1, g) - pair_transform(f, U, a2, g)
        for g in (((1, 0), (1, 1)), ((1, 1), (3, 0)))
    )
    diff = s1 - s2
    assert all(not any(e) for e in diff.coeffs)


def test_degenerate_resolution_rejects_parallel_auxiliary():
    # an auxiliary matrix whose first column is parallel to alpha1's makes
    # the auxiliary pair itself degenerate
    f = smoothed_2d_mod3(5)
    U = full_level_set(5, 2)
    with pytest.raises(DegenerateTuple):
        pair_transform(f, U, ((1, 0), (0, 1)), ((3, 0), (0, 1)), (4, 4))


def test_cocycle_relation_at_measure_level():
    # for a non-degenerate pair the direct transform agrees with the
    # auxiliary-difference construction away from the constant term
    f = smoothed_2d_mod3(5)
    U = full_level_set(5, 2)
    A = ((1, 0), (0, 1))
    B = ((1, 0), (1, 1))
    G = ((1, 1), (3, 0))
    lhs = pair_transform(f, U, A, B)
    rhs = pair_transform(f, U, A, G) - pair_transform(f, U, B, G)
    diff = lhs - rhs
    assert all(not any(e) for e in diff.coeffs)
