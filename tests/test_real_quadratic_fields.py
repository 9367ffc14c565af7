"""Real quadratic layer: fields, ideals, narrow ray classes, fans, and the
partial zeta values on both the exact and the p-adic side.

Pinned constants were produced by this package and cross-checked against
independent oracles (Siegel sigma-sums for the field zetas, closed-form
Euler factors for smoothed and starred values at inert and split primes).
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani_kit._linalg import mat_vec
from shintani_kit._rational_padics import is_squarefree, residue
from shintani_kit.cones import ConeFunction, OpenCone
from shintani_kit.errors import BadSmoothingData, ClassSearchExhausted, ShintaniKitError
from shintani_kit.padic_measures import amice_of_cone_function
from shintani_kit.real_quadratic_fields import (
    IdealHNF,
    RealQuadraticField,
    _generator_of,
    _ideal_from_vectors,
    _ideals_of_norm,
    _level_parts,
    _smoothed_class_function,
    eps_plus,
    euler_phi_quadratic,
    exact_ray_class_zeta,
    field_padic_L,
    field_zeta_value,
    fundamental_unit,
    h_plus_count,
    is_equivalent,
    narrow_ray_class_reps,
    o_ideal,
    padic_partial_zeta,
    prime_above,
    principal_ideal,
    rational_ideal,
    ray_unit,
    shintani_fan,
    smoothed_class_series,
    unit_order_mod,
    wide_class_reps,
    x_level_set,
)
from shintani_kit.selftest import check_interpolation, check_siegel_values, interpolation_table
from shintani_kit.test_functions import tensor_at_p, zn_indicator

import helpers
from helpers import (
    domain_from_cocycle,
    euler_phi_by_count,
    field_trace,
    generator_by_box,
    ideal_contains,
    is_equivalent_by_scan,
    pell_unit_by_scan,
    pushforward_by_newton_box,
    translate_fan,
    unit_order_by_walk,
)
from oracles import (
    euler_factor,
    kronecker_symbol,
    meyer_zeta_zero,
    siegel_zeta_minus_one,
    siegel_zeta_minus_three,
)

FIELDS = {D: RealQuadraticField(D) for D in (2, 3, 5, 13, 21)}
SQUAREFREE = [D for D in range(2, 200) if is_squarefree(D)]
F2, F3, F5, F13, F21 = (FIELDS[D] for D in (2, 3, 5, 13, 21))

small_coord = st.integers(min_value=-9, max_value=9)
field_choice = st.sampled_from(sorted(FIELDS))


# ---------------------------------------------------------------------------
# field arithmetic


class TestFieldArithmetic:
    def test_omega_square(self):
        # omega^2 = trace * omega - norm in the (1, omega) basis
        assert F5.mul((0, 1), (0, 1)) == (1, 1)
        assert F2.mul((0, 1), (0, 1)) == (2, 0)
        assert F13.mul((0, 1), (0, 1)) == (3, 1)

    def test_half_basis_split(self):
        assert F5.half_basis and F13.half_basis and F21.half_basis
        assert not F2.half_basis and not F3.half_basis

    def test_norm_values(self):
        assert F5.norm((2, 1)) == 5
        assert F5.norm((3, 1)) == 11
        assert F3.norm((1, 1)) == -2
        assert F2.norm((1, 1)) == -1

    def test_trace_and_conjugate(self):
        assert field_trace(F5, (2, 1)) == 5
        assert F5.conj((2, 1)) == (3, -1)
        assert F2.conj((4, 3)) == (4, -3)

    def test_invalid_discriminants(self):
        for bad in (0, 1, 4, 9, 12, -5):
            with pytest.raises(ValueError):
                RealQuadraticField(bad)

    @given(field_choice, small_coord, small_coord, small_coord, small_coord)
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative(self, D, x1, y1, x2, y2):
        F = FIELDS[D]
        u, v = (x1, y1), (x2, y2)
        assert F.norm(F.mul(u, v)) == F.norm(u) * F.norm(v)

    @given(field_choice, small_coord, small_coord, small_coord, small_coord)
    @settings(max_examples=60, deadline=None)
    def test_conjugation_is_a_ring_map(self, D, x1, y1, x2, y2):
        F = FIELDS[D]
        u, v = (x1, y1), (x2, y2)
        assert F.conj(F.mul(u, v)) == F.mul(F.conj(u), F.conj(v))
        assert F.mul(u, F.conj(u)) == (F.norm(u), 0)

    @given(field_choice, small_coord, small_coord, small_coord, small_coord)
    @settings(max_examples=40, deadline=None)
    def test_mult_matrix_represents_multiplication(self, D, x1, y1, x2, y2):
        F = FIELDS[D]
        u, v = (x1, y1), (x2, y2)
        assert tuple(mat_vec(F.mult_matrix(u), v)) == F.mul(u, v)

    def test_norm_form_matches_norm(self):
        for F in FIELDS.values():
            form = F.norm_form()
            for v in ((1, 0), (0, 1), (3, -2), (-5, 7)):
                total = sum(
                    c * Fraction(v[0]) ** e[0] * Fraction(v[1]) ** e[1]
                    for e, c in form.items()
                )
                assert total == F.norm(v)

    def test_sign_pair(self):
        # omega > 0 > conj(omega) for D = 5
        assert F5.sign_pair((0, 1)) == (1, -1)
        assert F5.sign_pair((2, 1)) == (1, 1)

    def test_unit_power_negative_exponent(self):
        for F in FIELDS.values():
            u = fundamental_unit(F)
            inv = F.pow(u, -1)
            assert F.mul(u, inv) == (1, 0)
            assert F.pow(u, -3) == F.pow(inv, 3)


# ---------------------------------------------------------------------------
# units


class TestUnits:
    def test_fundamental_unit_pins(self):
        assert fundamental_unit(F5) == (0, 1)
        assert fundamental_unit(F2) == (1, 1)
        assert fundamental_unit(F3) == (2, 1)
        assert fundamental_unit(F13) == (1, 1)
        assert fundamental_unit(F21) == (2, 1)

    def test_large_fundamental_unit_pins(self):
        # D = 139 to 199 have y above 10^6
        pins = {
            46: (24335, 3588),
            94: (2143295, 221064),
            139: (77563250, 6578829),
            151: (1728148040, 140634693),
            163: (64080026, 5019135),
            166: (1700902565, 132015642),
            199: (16266196520, 1153080099),
        }
        for D, u in pins.items():
            F = RealQuadraticField(D)
            assert fundamental_unit(F) == u
            assert abs(F.norm(u)) == 1

    def test_fundamental_unit_matches_pell_scan(self):
        checked = 0
        for D in SQUAREFREE:
            F = RealQuadraticField(D)
            u = fundamental_unit(F)
            assert pell_unit_by_scan(F, 10**4) == (u if u[1] < 10**4 else None)
            checked += u[1] < 10**4
        assert checked == 108

    def test_fundamental_unit_properties(self):
        from shintani_kit.exact_core import quad_sign

        for F in FIELDS.values():
            u = fundamental_unit(F)
            assert F.norm(u) in (1, -1)
            assert quad_sign(F.to_quad(u)) == 1

    def test_eps_plus_pins(self):
        assert eps_plus(F5) == (1, 1)
        assert eps_plus(F2) == (3, 2)
        assert eps_plus(F3) == (2, 1)
        assert eps_plus(F13) == (4, 3)
        assert eps_plus(F21) == (2, 1)

    def test_eps_plus_properties(self):
        for F in FIELDS.values():
            e = eps_plus(F)
            assert F.norm(e) == 1
            assert F.sign_pair(e) == (1, 1)

    def test_unit_order_pins(self):
        assert unit_order_mod(F5, eps_plus(F5), 3) == 4
        assert unit_order_mod(F2, eps_plus(F2), 5) == 6
        assert unit_order_mod(F3, eps_plus(F3), 5) == 3
        assert unit_order_mod(F5, eps_plus(F5), 7) == 8
        assert unit_order_mod(F5, eps_plus(F5), 9) == 12

    def test_unit_order_matches_walk(self):
        for F in FIELDS.values():
            for u in (fundamental_unit(F), eps_plus(F)):
                for Q in range(1, 31):
                    assert unit_order_mod(F, u, Q) == unit_order_by_walk(F, u, Q)

    def test_ray_unit(self):
        u, t = ray_unit(F5, 3)
        assert (u, t) == ((13, 21), 4)
        assert u == F5.pow(eps_plus(F5), 4)
        assert u[0] % 3 == 1 and u[1] % 3 == 0


# ---------------------------------------------------------------------------
# ideals


class TestIdeals:
    def test_validation(self):
        with pytest.raises(ShintaniKitError):
            IdealHNF(F5, 5, 1, 1)  # 5 does not divide the norm of (1, 1)
        with pytest.raises(ShintaniKitError):
            IdealHNF(F5, 5, 5, 1)  # b out of range
        with pytest.raises(ShintaniKitError):
            IdealHNF(F5, 6, 0, 4)  # d must divide a

    def test_norm_and_membership(self):
        p5 = IdealHNF(F5, 5, 2, 1)
        assert p5.norm == 5
        assert ideal_contains(p5, (5, 0))
        assert ideal_contains(p5, (2, 1))
        assert ideal_contains(p5, (-3, 1))
        assert not ideal_contains(p5, (1, 0))
        assert not ideal_contains(p5, (Fraction(5, 2), 0))

    def test_prime_above_pins(self):
        assert [(q.a, q.b, q.d) for q in prime_above(F5, 11)] == [
            (11, 7, 1),
            (11, 3, 1),
        ]
        assert [(q.a, q.b, q.d) for q in prime_above(F2, 7)] == [
            (7, 4, 1),
            (7, 3, 1),
        ]
        assert [(q.a, q.b, q.d) for q in prime_above(F3, 11)] == [
            (11, 6, 1),
            (11, 5, 1),
        ]
        assert prime_above(F5, 3) == []
        assert prime_above(F5, 7) == []
        assert [(q.a, q.b, q.d) for q in prime_above(F5, 5)] == [(5, 2, 1)]

    def test_split_prime_times_conjugate(self):
        c, cbar = prime_above(F5, 11)
        assert c.conjugate() == cbar
        assert c * cbar == rational_ideal(F5, 11)

    def test_ramified_square(self):
        (p5,) = prime_above(F5, 5)
        assert p5.conjugate() == p5
        assert p5 * p5 == rational_ideal(F5, 5)

    def test_conjugate_matches_hermite_form_of_conjugate_basis(self):
        # the closed form (a, (-b - d tr omega) mod a, d) against the HNF of
        # the conjugated basis vectors, on every ideal of norm < 40
        checked = 0
        for D in (d for d in range(2, 60) if is_squarefree(d)):
            field = RealQuadraticField(D)
            for n in range(1, 40):
                for ideal in _ideals_of_norm(field, n):
                    conj = [field.conj(v) for v in ideal.basis()]
                    assert ideal.conjugate() == _ideal_from_vectors(field, conj)
                    assert ideal.conjugate().conjugate() == ideal
                    checked += 1
        assert checked > 1000

    def test_principal_ideal(self):
        assert principal_ideal(F5, (3, 1)) == IdealHNF(F5, 11, 3, 1)
        assert principal_ideal(F5, (1, 0)) == o_ideal(F5)
        # a unit generates the full ring
        assert principal_ideal(F5, eps_plus(F5)) == o_ideal(F5)

    def test_inverse_basis_matrix(self):
        from shintani_kit._linalg import columns

        for I in (IdealHNF(F5, 5, 2, 1), IdealHNF(F3, 11, 6, 1), rational_ideal(F2, 6)):
            F = I.field
            inv = I.inverse_basis_matrix()
            cols = columns(inv)
            # ideal times fractional inverse lands in the ring of integers
            prods = [F.mul(b, tuple(c)) for b in I.basis() for c in cols]
            assert all(x.denominator == 1 for v in prods for x in v)
            # and the product lattice is all of it, not a proper sublattice
            det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
            assert abs(det) == Fraction(1, I.norm)

    @given(
        st.sampled_from([2, 3, 5, 13, 21]),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=20),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_product_norm_multiplicative(self, D, n1, n2, rng):
        from shintani_kit.real_quadratic_fields import _ideals_of_norm

        F = FIELDS[D]
        one = _ideals_of_norm(F, n1)
        two = _ideals_of_norm(F, n2)
        if not one or not two:
            return
        I = rng.choice(one)
        J = rng.choice(two)
        P = I * J
        assert P.norm == I.norm * J.norm
        # the product sits inside both factors
        for v in P.basis():
            assert ideal_contains(I, v) and ideal_contains(J, v)

    def test_product_commutes_and_associates(self):
        I = IdealHNF(F5, 5, 2, 1)
        J = IdealHNF(F5, 11, 7, 1)
        K = rational_ideal(F5, 2)
        assert I * J == J * I
        assert (I * J) * K == I * (J * K)


# ---------------------------------------------------------------------------
# classes and equivalence


class TestClasses:
    def test_wide_class_numbers(self):
        for F in FIELDS.values():
            assert len(wide_class_reps(F)) == 1

    def test_narrow_class_numbers(self):
        assert [h_plus_count(F) for F in (F2, F3, F5, F13, F21)] == [1, 2, 1, 1, 2]

    def test_narrow_reps_pins(self):
        def shape(F, Q=1):
            return [(i.a, i.b, i.d) for i in narrow_ray_class_reps(F, Q)]

        assert shape(F5) == [(1, 0, 1)]
        assert shape(F3) == [(1, 0, 1), (2, 1, 1)]
        assert shape(F21) == [(1, 0, 1), (3, 1, 1)]
        assert shape(F5, 3) == [(1, 0, 1), (5, 2, 1)]

    def test_euler_phi_quadratic(self):
        assert euler_phi_quadratic(F5, 3) == 8  # inert
        assert euler_phi_quadratic(F5, 5) == 20  # ramified
        assert euler_phi_quadratic(F5, 11) == 100  # split
        assert euler_phi_quadratic(F5, 1) == 1

    def test_euler_phi_quadratic_matches_count(self):
        for F in FIELDS.values():
            for Q in range(1, 31):
                assert euler_phi_quadratic(F, Q) == euler_phi_by_count(F, Q)

    def test_generator_matches_box_scan(self):
        # every ideal of norm <= 40 over squarefree D < 100; the box scan
        # answers where its box fits the guard
        checked = 0
        for D in (D for D in SQUAREFREE if D < 100):
            F = RealQuadraticField(D)
            for n in range(1, 41):
                for I in _ideals_of_norm(F, n):
                    g = _generator_of(F, I)
                    if g is not None:
                        assert principal_ideal(F, g) == I
                        assert abs(F.norm(g)) == n
                    try:
                        ref = generator_by_box(F, I)
                    except ClassSearchExhausted:
                        continue
                    assert (g is None) == (ref is None)
                    checked += 1
        assert checked == 1814

    def test_ray_class_count_mod_3(self):
        assert h_plus_count(F5, 3) == 2
        assert h_plus_count(F5, 5) == 2

    def test_ramified_prime_is_narrowly_principal(self):
        # sqrt(5) * eps fixes the signs: (2, 1) generates with norm +5
        (p5,) = prime_above(F5, 5)
        assert is_equivalent(F5, p5, o_ideal(F5), narrow=True)

    def test_norm_two_class_in_sqrt3(self):
        (p2,) = prime_above(F3, 2)
        assert (p2.a, p2.b, p2.d) == (2, 1, 1)
        # all generators have norm -2 and units have norm +1, so the signs
        # can never be fixed: wide principal, narrow not
        assert is_equivalent(F3, p2, o_ideal(F3), narrow=False)
        assert not is_equivalent(F3, p2, o_ideal(F3), narrow=True)

    def test_smoothing_prime_classes_mod_conductor(self):
        c11 = prime_above(F5, 11)[0]
        reps = narrow_ray_class_reps(F5, 3)
        hits = [is_equivalent(F5, c11, R, modulus=3, narrow=True) for R in reps]
        assert hits == [False, True]

        d11 = prime_above(F3, 11)[0]
        assert is_equivalent(F3, d11, prime_above(F3, 2)[0], narrow=True)

    def test_equivalence_is_reflexive_and_symmetric(self):
        ideals = [o_ideal(F5), IdealHNF(F5, 5, 2, 1), IdealHNF(F5, 11, 7, 1)]
        for I in ideals:
            assert is_equivalent(F5, I, I, narrow=True)
        for I in ideals:
            for J in ideals:
                assert is_equivalent(F5, I, J, narrow=True) == is_equivalent(
                    F5, J, I, narrow=True
                )

    def test_equivalence_matches_period_scan(self):
        # every pair of ideals of norm below 9 prime to Q, narrow and wide;
        # the fields cover unit norm -1 and +1 and h+ = 1, 2, 4, 6
        answers = []
        for D in (2, 3, 5, 15, 34, 79):
            F = RealQuadraticField(D)
            ideals = [I for n in range(1, 9) for I in _ideals_of_norm(F, n)]
            for Q in range(1, 13):
                prime = [I for I in ideals if math.gcd(I.norm, Q) == 1]
                for I in prime:
                    for J in prime:
                        for narrow in (True, False):
                            got = is_equivalent(F, I, J, Q, narrow)
                            assert got == is_equivalent_by_scan(F, I, J, Q, narrow)
                            answers.append(got)
        assert len(answers) > 4000 and 0 < sum(answers) < len(answers)

    def test_equivalence_refuses_ideals_meeting_the_modulus(self):
        (p5,) = prime_above(F5, 5)
        for I, J in [(p5, o_ideal(F5)), (o_ideal(F5), p5), (rational_ideal(F5, 2), p5)]:
            with pytest.raises(ValueError, match="modulus 10"):
                is_equivalent(F5, I, J, modulus=10)
        assert is_equivalent(F5, p5, p5, modulus=3)


# ---------------------------------------------------------------------------
# fans


class TestFans:
    def test_geometric_fan_shape(self):
        fan = shintani_fan(F5)
        assert fan.terms == [
            (Fraction(1), OpenCone(((1, 0), (1, 1)))),
            (Fraction(1), OpenCone(((1, 0),))),
        ]

    def test_fan_of_a_power_is_the_translates_of_the_unit_cone(self):
        # eps_plus = 1 + omega at D = 5, with powers w, w2, w3
        w, w2, w3 = (1, 1), (2, 3), (5, 8)
        assert [F5.pow(w, j) for j in (2, 3)] == [w2, w3]
        assert translate_fan(F5, 3).terms == [
            (Fraction(1), OpenCone(((1, 0), w))),
            (Fraction(1), OpenCone(((1, 0),))),
            (Fraction(1), OpenCone((w, w2))),
            (Fraction(1), OpenCone((w,))),
            (Fraction(1), OpenCone((w2, w3))),
            (Fraction(1), OpenCone((w2,))),
        ]
        # the translates tile the open cone on (1, eps_plus^t) plus the ray
        # through 1, the fan of eps_plus^t; at t = 1 that is shintani_fan
        rng = Random(4127)
        for F in FIELDS.values():
            assert translate_fan(F, 1).terms == shintani_fan(F).terms
            for t in (2, 3, 5):
                eps = F.pow(eps_plus(F), t)
                whole = ConeFunction([
                    (Fraction(1), OpenCone(((1, 0), eps))),
                    (Fraction(1), OpenCone(((1, 0),))),
                ])
                points = [F.pow(eps_plus(F), j) for j in range(-1, t + 2)]
                for _ in range(40):
                    x = Fraction(rng.randrange(-50, 400), rng.randrange(1, 60))
                    y = Fraction(rng.randrange(-20, 300), rng.randrange(1, 60))
                    points += [(x, y), (x + y * eps[0], y * eps[1])]
                fan = translate_fan(F, t)
                for v in points:
                    assert fan.evaluate(v) == whole.evaluate(v), (F.D, t, v)

    def test_cocycle_domain_all_fields(self):
        for F in FIELDS.values():
            e = eps_plus(F)
            fan = domain_from_cocycle(F, e)
            assert fan.terms == [
                (Fraction(1), OpenCone(((1, 0), e))),
                (Fraction(1), OpenCone((e,))),
            ]

    def test_cocycle_domain_rejects_bad_unit(self):
        with pytest.raises(ValueError):
            domain_from_cocycle(F5, tuple(-c for c in eps_plus(F5)))
        with pytest.raises(ValueError):
            domain_from_cocycle(F5, fundamental_unit(F5))

    def test_cocycle_domain_tiles_the_quadrant(self):
        # the domain plus its eps-translate covers fresh points exactly once
        F, e = F5, eps_plus(F5)
        fan = domain_from_cocycle(F, e)
        m = F.mult_matrix(e)
        pts = [(Fraction(7, 3), Fraction(1, 2)), (Fraction(12), Fraction(5))]
        for v in pts:
            orbit_hits = sum(
                fan.evaluate(v0)
                for v0 in (v, tuple(mat_vec(m, v)), tuple(mat_vec(m, mat_vec(m, v))))
            )
            assert orbit_hits == 1

    def test_overall_sign_flip_is_normalized(self, monkeypatch):
        # the cocycle is only pinned up to a global sign; a flipped copy of
        # the true domain must calibrate back to weight +1
        e = eps_plus(F5)
        true_fan = domain_from_cocycle(F5, e)

        def flipped(tup):
            return ConeFunction([(-w, c) for w, c in true_fan.terms])

        monkeypatch.setattr(helpers, "hill_cone_function", flipped)
        assert domain_from_cocycle(F5, e).terms == true_fan.terms

    def test_calibration_guard_fires_on_shifted_domain(self, monkeypatch):
        # a domain translated by eps has the right shape but tiles wrongly
        e = eps_plus(F5)
        e2 = F5.mul(e, e)

        def shifted(tup):
            return ConeFunction(
                [(Fraction(1), OpenCone((e, e2))), (Fraction(1), OpenCone((e2,)))]
            )

        monkeypatch.setattr(helpers, "hill_cone_function", shifted)
        with pytest.raises(AssertionError):
            domain_from_cocycle(F5, e)

    def test_calibration_guard_fires_on_wrong_pattern(self, monkeypatch):
        def squashed(tup):
            return ConeFunction([(Fraction(1), OpenCone(((1, 0), (1, 1))))])

        def mixed(tup):
            return ConeFunction(
                [
                    (Fraction(1), OpenCone(((1, 0), (1, 1)))),
                    (Fraction(-1), OpenCone(((1, 0),))),
                ]
            )

        for stub in (squashed, mixed):
            monkeypatch.setattr(helpers, "hill_cone_function", stub)
            with pytest.raises(AssertionError):
                domain_from_cocycle(F5, eps_plus(F5))


# ---------------------------------------------------------------------------
# level sets


class TestLevelSets:
    def test_level_zero(self):
        ls = x_level_set(F5, eps_plus(F5), 3, 0)
        assert ls.m == 1 and len(ls.offsets) == 8
        assert (0, 0) not in ls.offsets

    def test_level_one_orbit(self):
        ls = x_level_set(F5, eps_plus(F5), 3, 1)
        assert ls.offsets == ((1, 0), (1, 1), (2, 0), (2, 2))

    def test_level_orbit_partition(self):
        # orbits of the two mod-3 ray class reps partition the unit residues
        e = eps_plus(F5)
        o1 = set(x_level_set(F5, e, 3, 1).offsets)
        # second orbit: translate by a generator of the second class rep
        g = (2, 1)  # generates the ramified prime, lands in the other class
        o2 = set()
        cur = g
        for _ in range(len(o1)):
            o2.add((cur[0] % 3, cur[1] % 3))
            cur = F5.mul(cur, e)
        units = set(x_level_set(F5, e, 3, 0).offsets)
        assert o1 | o2 == units and not (o1 & o2)

    # (D, p) with p inert: (5, 3), (13, 5), (5, 7); split: (13, 3), (14, 5), (2, 7)
    @pytest.mark.parametrize("D, p", [(5, 3), (13, 3), (13, 5), (14, 5), (5, 7), (2, 7)])
    def test_level_zero_parts_sum_to_the_unit_indicator(self, D, p):
        # each part as the test function the exact side evaluates, at every
        # residue mod p^2: the signed sum is 1 on norm units and 0 elsewhere
        F = RealQuadraticField(D)
        split = len(prime_above(F, p)) == 2
        parts = _level_parts(F, eps_plus(F), p, 0)
        # the complement only where its 2p - 1 or 1 cosets beat the units
        assert len(parts) == (1 if split and p == 3 else 2)
        funcs = [(s, tensor_at_p(zn_indicator(2, away_from=p), U)) for s, U in parts]
        for x in range(p * p):
            for y in range(p * p):
                got = sum(s * g.evaluate((x, y)) for s, g in funcs)
                assert got == (F.norm((x, y)) % p != 0), (D, p, x, y)

    @given(st.sampled_from([(5, 3), (2, 5), (3, 5), (5, 7)]))
    @settings(max_examples=8, deadline=None)
    def test_level_one_offsets_are_norm_units(self, pair):
        D, p = pair
        F = FIELDS[D]
        ls = x_level_set(F, eps_plus(F), p, 1)
        for off in ls.offsets:
            assert F.norm(off) % p != 0


# ---------------------------------------------------------------------------
# exact zeta values


class TestExactZeta:
    def test_trivial_class_values_sqrt5(self):
        O = o_ideal(F5)
        vals = exact_ray_class_zeta(F5, O, 1, range(4))
        assert vals == [0, Fraction(1, 30), 0, Fraction(1, 60)]

    def test_field_zeta_matches_siegel(self):
        # 43, 46, 58: two narrow classes each, and totally positive units
        # above 3000
        assert all(h_plus_count(RealQuadraticField(D)) == 2 for D in (43, 46, 58))
        ok, detail = check_siegel_values((*FIELDS, 43, 46, 58), [(1, siegel_zeta_minus_one)])
        assert ok, detail
        # the heavier weight only on the two-class fields, where the sum
        # actually combines different cone data
        ok, detail = check_siegel_values((3, 21), [(3, siegel_zeta_minus_three)])
        assert ok, detail

    def test_class_values_at_zero_match_meyer(self):
        # one narrow class at a time, where the Siegel check sees only the
        # sum over the classes (and that sum is 0 at k = 0)
        checked = 0
        for D in (D for D in SQUAREFREE if D < 60):
            F = RealQuadraticField(D)
            for rep in narrow_ray_class_reps(F, 1):
                want = meyer_zeta_zero(F.disc, rep.a // rep.d, rep.b // rep.d, F.omega_trace)
                assert exact_ray_class_zeta(F, rep, 1, [0]) == [want], (D, rep)
                checked += 1
        assert checked == 80

    def test_zeta_trivial_zeros(self):
        for F in (F5, F3):
            assert field_zeta_value(F, [0, 2]) == [0, 0]

    def test_smoothed_values_sqrt5(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        # trivial narrow class group: smoothing multiplies by 1 - ell^(1+k)
        plain = field_zeta_value(F5, range(4))
        want = [(1 - 11 ** (1 + k)) * v for k, v in enumerate(plain)]
        got = exact_ray_class_zeta(F5, O, 1, range(4), smoothing=c11)
        assert got == want
        assert got[1] == -4

    def test_starred_values_sqrt5(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        # 3 is inert, so removing the 3-part multiplies by 1 - 3^(2k)
        got = exact_ray_class_zeta(F5, O, 1, range(3), smoothing=c11, star_at=3)
        assert got == [0, 32, 0]
        for k, (v, plain) in enumerate(zip(got, field_zeta_value(F5, range(3)))):
            assert v == (1 - 3 ** (2 * k)) * (1 - 11 ** (1 + k)) * plain

    # D, p, ell, split p: h+ = 1 for D = 5 and 13, so the starred smoothed
    # class value is E_p(k) (1 - ell^(1+k)) zeta_F(-k); at p = 3 split the
    # level-zero set stays the unit list, at p = 11 split and 7 inert it is
    # the lattice minus the non-unit cosets
    @pytest.mark.parametrize("D, p, ell, split", [(13, 3, 17, True), (5, 11, 19, True),
                                                  (5, 7, 11, False)])
    def test_starred_values_match_the_euler_factor(self, D, p, ell, split):
        F = RealQuadraticField(D)
        assert (len(prime_above(F, p)) == 2) == split and h_plus_count(F) == 1
        got = exact_ray_class_zeta(F, o_ideal(F), 1, [1, 3], smoothing=prime_above(F, ell)[0],
                                   star_at=p)
        for k, v, zeta in zip((1, 3), got, (siegel_zeta_minus_one(D), siegel_zeta_minus_three(D))):
            euler = (1 - p**k) ** 2 if split else 1 - p ** (2 * k)
            assert v == euler * (1 - ell ** (1 + k)) * zeta, (D, p, k)

    # the narrow ray classes mod Q partition the ideals prime to Q, so their
    # values sum to zeta_F(-k) times E_q(k) for each prime q | Q; every
    # class is folded onto eps_plus's cone, with t > 1 translates at most Q
    @pytest.mark.parametrize("D", [2, 5, 13, 21])
    def test_ray_class_values_sum_to_the_euler_factors(self, D):
        F = RealQuadraticField(D)
        zetas = (siegel_zeta_minus_one(D), siegel_zeta_minus_three(D))
        folded = 0
        for Q in range(2, 10):
            totals = [Fraction(0)] * 2
            for rep in narrow_ray_class_reps(F, Q):
                got = exact_ray_class_zeta(F, rep, Q, [1, 3])
                totals = [a + b for a, b in zip(totals, got)]
            for k, total, zeta in zip((1, 3), totals, zetas):
                euler = 1
                for q in (q for q in (2, 3, 5, 7) if Q % q == 0):
                    euler *= euler_factor(D, q, k)
                assert total == euler * zeta, (D, Q, k)
            folded += ray_unit(F, Q)[1] > 1
        assert folded >= 4

    def test_euler_factor_oracle(self):
        # discriminant 5: 2 and 3 are inert, 5 ramifies, 11 splits
        assert [kronecker_symbol(5, q) for q in (2, 3, 5, 11)] == [-1, -1, 0, 1]
        assert kronecker_symbol(8, 2) == 0 and kronecker_symbol(17, 2) == 1
        assert [euler_factor(5, q, 1) for q in (2, 5, 11)] == [1 - 4, 1 - 5, (1 - 11) ** 2]

    def test_smoothing_validation(self):
        O = o_ideal(F5)
        with pytest.raises(BadSmoothingData):
            exact_ray_class_zeta(F5, O, 1, [1], smoothing=rational_ideal(F5, 3))
        with pytest.raises(BadSmoothingData):
            exact_ray_class_zeta(F5, O, 1, [1], smoothing=rational_ideal(F5, 4))
        with pytest.raises(BadSmoothingData):
            # smoothing prime must avoid the modulus
            exact_ray_class_zeta(F5, O, 11, [1], smoothing=prime_above(F5, 11)[0])


# ---------------------------------------------------------------------------
# p-adic side and the interpolation identity


class TestPadicInterpolation:
    def test_sqrt5_p3_pinned_moments(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        for m, want in [(0, [0, 32, 0, 177632]), (1, [4, 16, 2368, 88816])]:
            ser = smoothed_class_series(F5, O, c11, 3, m, caps=(6, 6))
            got = [
                padic_partial_zeta(F5, O, ser, 3, k).exact
                for k in range(4)
            ]
            assert got == want

    def test_sqrt5_p3_matches_exact_level_one(self):
        rows, _ = interpolation_table([(5, 3, 11, 1, range(3))], (4, 4))
        ok, detail = check_interpolation(rows, "D = 5, p = 3, level 1, k <= 2")
        assert ok and len(rows) == 3, detail

    def test_sqrt5_p3_matches_exact_level_zero(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        ser = smoothed_class_series(F5, O, c11, 3, 0, caps=(4, 4))
        pv = padic_partial_zeta(F5, O, ser, 3, 1).exact
        (ex,) = exact_ray_class_zeta(F5, O, 1, [1], smoothing=c11, star_at=3)
        assert pv == ex == 32

    def test_second_ray_class_and_trace_compatibility(self):
        c11 = prime_above(F5, 11)[0]
        p5 = IdealHNF(F5, 5, 2, 1)
        ser = smoothed_class_series(F5, p5, c11, 3, 1, caps=(4, 4))
        got = [
            padic_partial_zeta(F5, p5, ser, 3, k).exact
            for k in range(3)
        ]
        assert got == [-4, 16, -2368]
        # summing the level-one classes reproduces the level-zero moments
        assert [a + b for a, b in zip(got, [4, 16, 2368])] == [0, 32, 0]

    def test_nontrivial_conductor(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        ser = smoothed_class_series(F5, O, c11, 3, 1, conductor=2, caps=(4, 4))
        for k, want in [(0, 0), (1, -48)]:
            pv = padic_partial_zeta(F5, O, ser, 3, k).exact
            assert pv == want
            assert [pv] == exact_ray_class_zeta(F5, O, 6, [k], smoothing=c11)

    def test_explicit_fan_agrees_with_cocycle_fan(self):
        # translate_fan, the reference for the fold, gives the moments of
        # the fan read off the cocycle, since the norm is eps-invariant
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        eps, t, f = _smoothed_class_function(F5, O, c11, 3, 1, 3)
        level = x_level_set(F5, eps, 3, 1)
        series = [
            amice_of_cone_function(f, kappa, level, (2, 2))
            for kappa in (translate_fan(F5, t), domain_from_cocycle(F5, eps))
        ]
        a, b = (padic_partial_zeta(F5, O, s, 3, 1).exact for s in series)
        assert a == b == 16
        # elsewhere translate_fan cuts the cocycle's open cone on (1, eps)
        # into the t translates of eps_plus's cone, eps = eps_plus^t, and the
        # two put their ray through 1 or through eps.  Without those rays
        # they agree pointwise, checked on seeded rational points and on the
        # powers of eps_plus; the transform is a sum over the terms, so
        # comparing the ray moments then compares the fans without
        # evaluating the cocycle's cone, whose parallelepiped grows with eps
        # (eps = 469 + 360w at D = 13 and conductor 2)
        rng = Random(8071)
        for D, p, ell in ((5, 3, 11), (2, 5, 7), (13, 3, 17)):
            F, O = FIELDS[D], o_ideal(FIELDS[D])
            c = prime_above(F, ell)[0]
            for conductor, m in ((1, 0), (1, 1), (2, 0), (2, 1)):
                Q = conductor * p**m
                eps, t, f = _smoothed_class_function(F, O, c, p, conductor, Q)
                assert (eps, t) == ray_unit(F, conductor)
                fan, reference = translate_fan(F, t), domain_from_cocycle(F, eps)
                one, through_eps = OpenCone(((1, 0),)), OpenCone((eps,))
                (ray,) = [term for term in fan.terms if term[1] == one]
                (ref_ray,) = [term for term in reference.terms if term[1] == through_eps]
                cut = ConeFunction([term for term in fan.terms if term[1] != one])
                ref_cut = ConeFunction([term for term in reference.terms if term[1] != through_eps])
                points = [F.pow(eps_plus(F), j) for j in range(t + 1)]
                for _ in range(200):
                    x = Fraction(rng.randrange(-50, 400), rng.randrange(1, 60))
                    y = Fraction(rng.randrange(-20, 300), rng.randrange(1, 60))
                    points += [(x, y), (x + y * eps[0], y * eps[1])]
                for v in points:
                    assert cut.evaluate(v) == ref_cut.evaluate(v), (D, conductor, m, v)
                level = x_level_set(F, eps, p, m)
                rays = [
                    amice_of_cone_function(f, ConeFunction([term]), level, (4, 4))
                    for term in (ray, ref_ray)
                ]
                for k in range(3):
                    got, want = (
                        padic_partial_zeta(F, O, s, p, k).exact
                        for s in rays
                    )
                    assert got == want

    def test_padic_scalar_reporting(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        ser = smoothed_class_series(F5, O, c11, 3, 1, caps=(6, 6))
        pz = padic_partial_zeta(F5, O, ser, 3, 2, M=5)
        assert pz.exact == 2368
        assert pz.value.p == 3 and pz.value.M == 5
        assert pz.value.residue == residue(Fraction(2368), 3, 5)

    def test_prime_setup_validation(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        with pytest.raises(ValueError):
            smoothed_class_series(F5, O, c11, 2, 1)  # p = 2
        with pytest.raises(ValueError):
            smoothed_class_series(F5, O, c11, 5, 1)  # ramified
        with pytest.raises(ValueError):
            smoothed_class_series(F5, rational_ideal(F5, 3), c11, 3, 1)
        with pytest.raises(BadSmoothingData):
            # smoothing prime must avoid the conductor
            smoothed_class_series(F5, O, c11, 3, 1, conductor=11)
        with pytest.raises(BadSmoothingData):
            # smoothing prime must stay away from p
            smoothed_class_series(F5, O, prime_above(F5, 11)[0], 11, 1)
        # a ray class mod f holds only ideals prime to f, on both sides
        (p5,) = prime_above(F5, 5)
        for ideal, conductor in ((rational_ideal(F5, 2), 2), (p5, 5), (p5, 10)):
            with pytest.raises(ValueError, match="class ideal"):
                smoothed_class_series(F5, ideal, c11, 3, 0, conductor=conductor)
            with pytest.raises(ValueError, match="class ideal"):
                exact_ray_class_zeta(F5, ideal, conductor, [0], smoothing=c11)
        with pytest.raises(ValueError, match="class ideal"):
            exact_ray_class_zeta(F5, rational_ideal(F5, 3), 3, [0])


class TestFieldPadicL:
    def test_interpolation_at_negative_integers(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        L = field_padic_L(F5, O, c11, 3, count=5)
        for k, want in [(0, 0), (1, 32), (2, 0), (3, 177632)]:
            v = L.value_at(-k, twist=k, M=8)
            eff = 3 ** (v.M - v.guard)
            assert v.residue % eff == residue(Fraction(want), 3, v.M - v.guard)

    def test_class_normalization(self):
        # the norm(a)-scaling folds the class factor into the measure
        c11 = prime_above(F5, 11)[0]
        p5 = IdealHNF(F5, 5, 2, 1)
        L = field_padic_L(F5, p5, c11, 3, count=3)
        v = L.value_at(-1, twist=1, M=6)
        eff = v.M - v.guard
        assert v.residue % 3 ** eff == residue(Fraction(32), 3, eff)

    def test_continuity_in_s(self):
        O = o_ideal(F5)
        c11 = prime_above(F5, 11)[0]
        L = field_padic_L(F5, O, c11, 3, count=5)
        va = L.value_at(-1, twist=1, M=8)
        vb = L.value_at(-1 + 2 * 9, twist=1, M=8)
        assert (va.residue - vb.residue) % 27 == 0
        with pytest.raises(ValueError):
            L.value_at(Fraction(1, 3), twist=0, M=8)

    @pytest.mark.parametrize("D, p, ell", [(5, 3, 11), (2, 5, 7), (13, 3, 17)])
    def test_components_match_newton_box(self, monkeypatch, D, p, ell):
        F = RealQuadraticField(D)
        c = prime_above(F, ell)[0]
        got = field_padic_L(F, o_ideal(F), c, p, count=3).components
        monkeypatch.setattr(
            "shintani_kit.real_quadratic_fields.pushforward_norm", pushforward_by_newton_box
        )
        want = field_padic_L(F, o_ideal(F), c, p, count=3).components
        assert {b: s.coeffs for b, s in got.items()} == {b: s.coeffs for b, s in want.items()}
