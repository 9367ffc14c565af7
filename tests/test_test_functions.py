import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani_kit import test_functions
from shintani_kit._linalg import det, from_columns, lattice_intersection, mat, mat_vec, rank
from shintani_kit.errors import NotAwayFromP, SingularMatrix, ZeroDirection
from shintani_kit.test_functions import (
    PLevelSet,
    TestFunction,
    _away_line_mass,
    full_level_set,
    gl_act_test,
    haar,
    lattice_indicator,
    parallelepiped_support,
    periodicity_lattice,
    support_class_representatives,
    tensor_at_p,
    vanishing_check,
    zn_indicator,
)

from helpers import level_set_contains, support_by_box, translate

F = Fraction


def random_lattice(rng, n, bound=3):
    while True:
        L = tuple(tuple(F(rng.randint(-bound, bound)) for _ in range(n)) for _ in range(n))
        d = det(L)
        if d != 0 and abs(d) <= 24:
            return L


def random_function(rng, n, nterms=3):
    terms = []
    for _ in range(nterms):
        c = F(rng.randint(-4, 4))
        if c == 0:
            c = F(1)
        o = tuple(F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(n))
        terms.append((c, o, random_lattice(rng, n)))
    return TestFunction(n, tuple(terms))


def test_evaluate_basics():
    f = zn_indicator(2)
    assert f.evaluate((3, -7)) == 1
    assert f.evaluate((F(1, 2), 0)) == 0
    g = lattice_indicator(((2, 0), (0, 3)), offset=(1, 1))
    assert g.evaluate((1, 1)) == 1
    assert g.evaluate((3, 4)) == 1
    assert g.evaluate((2, 1)) == 0
    h = f - g.scale(2)
    assert h.evaluate((1, 1)) == 1 - 2
    assert h.evaluate((0, 0)) == 1


def test_haar_closed_form_random():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.choice([1, 1, 2])
        f = random_function(rng, n)
        expected = sum(t.coeff / abs(det(t.lattice)) for t in f.terms)
        assert haar(f) == expected


def test_haar_overlapping_terms():
    f = lattice_indicator(((2,),)) + lattice_indicator(((3,),))
    Lf = periodicity_lattice(f)
    assert abs(det(Lf)) == 6
    assert haar(f) == F(5, 6)
    reps = support_class_representatives(f)
    assert len(reps) == 4  # classes 0,2,3,4 mod 6


@pytest.mark.parametrize("lattices", [
    [((2, 1), (0, 3))],
    [((2, 1), (0, 3))] * 5,
    [((2, 1), (0, 3)), ((1, 0), (1, 4)), ((2, 1), (0, 3)), ((1, 0), (1, 4))],
    [((F(1, 2), 0), (0, 2)), ((2, 1), (0, 3)), ((1, 0), (1, 4)), ((F(1, 2), 0), (0, 2))],
])
def test_periodicity_lattice_takes_each_distinct_lattice_once(monkeypatch, lattices):
    # the term-by-term intersection is the reference, basis and all
    f = sum((lattice_indicator(L, (k, 0)) for k, L in enumerate(lattices)), TestFunction(2))
    want = mat(lattices[0])
    for L in lattices[1:]:
        want = lattice_intersection(want, L)
    calls = []

    def counted(a, b):
        calls.append(b)
        return lattice_intersection(a, b)

    monkeypatch.setattr(test_functions, "lattice_intersection", counted)
    assert periodicity_lattice(f) == want
    # one call per distinct lattice after the first; a lone repeated
    # lattice still takes one, for the canonical basis
    distinct = len(set(map(mat, lattices)))
    assert len(calls) == (distinct - 1 if distinct > 1 else int(len(lattices) > 1))


def test_haar_translation_invariance():
    rng = random.Random(102)
    for _ in range(10):
        f = random_function(rng, 2)
        u = tuple(F(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(2))
        assert haar(translate(f, u)) == haar(f)


def test_haar_product():
    rng = random.Random(103)
    for _ in range(8):
        f = random_function(rng, 1, nterms=2)
        g = random_function(rng, 1, nterms=2)
        terms = []
        for a in f.terms:
            for b in g.terms:
                L = (
                    (a.lattice[0][0], F(0)),
                    (F(0), b.lattice[0][0]),
                )
                terms.append((a.coeff * b.coeff, (a.offset[0], b.offset[0]), L))
        prod = TestFunction(2, tuple(terms))
        assert haar(prod) == haar(f) * haar(g)


def test_away_line_mass_sees_prime_denominators():
    # the support misses the rational line through (0, 1/3) + x*e1, but
    # away from p = 3 that line still carries full mass
    f = zn_indicator(2, away_from=3)
    v = (F(0), F(1, 3))
    w = (F(1), F(0))
    assert all(f.evaluate((F(x, 6), v[1])) == 0 for x in range(-12, 13))
    assert _away_line_mass(f.terms[0], v, w, 3) == 1
    # at p = 2 the denominator 3 is not a unit, so the line is empty
    f2 = zn_indicator(2, away_from=2)
    assert _away_line_mass(f2.terms[0], v, w, 2) == 0


def test_vanishing_check_basic():
    one = zn_indicator(1, away_from=3)
    assert not vanishing_check(one, (1,))
    with pytest.raises(ZeroDirection):
        vanishing_check(one, (0,))
    kl = zn_indicator(1) - lattice_indicator(((2,),)).scale(2)
    kl = TestFunction(1, kl.terms, away_from=3)
    assert vanishing_check(kl, (1,))
    bad = zn_indicator(1) - lattice_indicator(((2,),)).scale(3)
    bad = TestFunction(1, bad.terms, away_from=3)
    assert not vanishing_check(bad, (1,))


def test_vanishing_check_two_dim():
    f = zn_indicator(2) - lattice_indicator(((2, 0), (0, 1))).scale(2)
    f = TestFunction(2, f.terms, away_from=3)
    assert vanishing_check(f, (1, 0))
    assert vanishing_check(f, (1, 2))
    assert vanishing_check(f, (3, 1))
    assert not vanishing_check(f, (0, 1))
    assert not vanishing_check(f, (2, 1))


def test_vanishing_check_translated():
    f = lattice_indicator(((1,),), offset=(F(1, 2),)) - lattice_indicator(
        ((2,),), offset=(F(1, 2),)
    ).scale(2)
    f = TestFunction(1, f.terms, away_from=3)
    assert vanishing_check(f, (1,))


def test_vanishing_check_requires_certificate():
    f = zn_indicator(1)
    with pytest.raises(NotAwayFromP):
        vanishing_check(f, (1,))
    empty = TestFunction(1, (), away_from=5)
    assert vanishing_check(empty, (1,))


def test_certification_rejects():
    with pytest.raises(NotAwayFromP):
        zn_indicator(1, away_from=3) + lattice_indicator(((3,),), away_from=3)
    with pytest.raises(NotAwayFromP):
        lattice_indicator(((1, 0), (0, 1)), offset=(F(1, 3), 0), away_from=3)
    with pytest.raises(NotAwayFromP):
        lattice_indicator(((F(1, 3),),), away_from=3)
    # denominators prime to p are fine
    lattice_indicator(((F(1, 2), 0), (0, 1)), offset=(F(5, 7), 0), away_from=3)


def test_plevel_set_contains():
    U = PLevelSet(3, 1, 2, offsets=((1, 2), (4, -3)))
    assert U.offsets == ((1, 0), (1, 2))  # reduced mod 3 and sorted
    assert level_set_contains(U, (1, 2))
    assert level_set_contains(U, (4, -1))
    assert level_set_contains(U, (F(5, 2), 2))  # 5/2 = 1 mod 3
    assert not level_set_contains(U, (F(1, 2), 2))  # 1/2 = 2 mod 3
    assert not level_set_contains(U, (2, 2))
    assert not level_set_contains(U, (F(1, 3), 0))
    full = full_level_set(3, 2)
    assert level_set_contains(full, (7, -5)) and not level_set_contains(full, (F(1, 3), 0))


def test_tensor_at_p():
    f = zn_indicator(2, away_from=3)
    U = PLevelSet(3, 1, 2, offsets=((1, 2),))
    g = tensor_at_p(f, U)
    assert g.away_from is None
    assert haar(g) == F(1, 9)
    rng = random.Random(105)
    for _ in range(40):
        v = (F(rng.randint(-6, 6), rng.choice([1, 2])), F(rng.randint(-6, 6)))
        expect = f.evaluate(v) if level_set_contains(U, v) else F(0)
        assert g.evaluate(v) == expect


def test_tensor_at_p_fractional_lattice():
    f = lattice_indicator(((F(1, 2), 0), (0, 1)), away_from=3)
    U = PLevelSet(3, 1, 2, offsets=((1, 0),))
    g = tensor_at_p(f, U)
    assert haar(g) == F(1, 9) / abs(det(f.terms[0].lattice))
    rng = random.Random(106)
    for _ in range(40):
        v = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8)))
        expect = f.evaluate(v) if level_set_contains(U, v) else F(0)
        assert g.evaluate(v) == expect


def test_tensor_level_zero_is_identity():
    f = zn_indicator(2, away_from=5)
    g = tensor_at_p(f, full_level_set(5, 2))
    assert g.away_from is None
    assert g.terms == f.terms
    with pytest.raises(NotAwayFromP):
        tensor_at_p(zn_indicator(2), full_level_set(5, 2))
    with pytest.raises(NotAwayFromP):
        tensor_at_p(zn_indicator(2, away_from=3), full_level_set(5, 2))


def test_gl_act_pointwise_and_mass():
    rng = random.Random(107)
    for _ in range(8):
        f = random_function(rng, 2)
        gamma = random_lattice(rng, 2)
        g = gl_act_test(f, gamma)
        for _ in range(15):
            v = tuple(F(rng.randint(-5, 5), rng.choice([1, 2])) for _ in range(2))
            assert g.evaluate(v) == f.evaluate(mat_vec(mat(gamma), v))
        assert haar(g) == abs(det(mat(gamma))) * haar(f)


def test_vanishing_invariant_under_unimodular_action():
    f = zn_indicator(2) - lattice_indicator(((2, 0), (0, 1))).scale(2)
    f = TestFunction(2, f.terms, away_from=3)
    gamma = mat(((1, 1), (0, 1)))
    g = gl_act_test(f, gamma)
    assert g.away_from == 3
    # direction transforms by gamma^{-1}: (gamma.f) restricted along u
    # matches f along gamma*u
    from shintani_kit._linalg import inverse

    ginv = inverse(gamma)
    for w in [(1, 0), (0, 1), (1, 2), (2, 1)]:
        assert vanishing_check(g, mat_vec(ginv, w)) == vanishing_check(f, w)


def _over_den(v):
    """An integer tuple (den, *nums) as the Fractions nums / den."""
    return tuple(F(x, v[0]) for x in v[1:])


def test_parallelepiped_support_basic():
    # x as (den, *nums) and t as (q, *T), both integers
    f = zn_indicator(1)
    assert parallelepiped_support(f, [(1,)]) == [((1, 1), (1, 1), F(1))]
    f2 = zn_indicator(2)
    assert parallelepiped_support(f2, [(1, 0), (0, 1)]) == [((1, 1, 1), (1, 1, 1), F(1))]
    pts = parallelepiped_support(f2, [(1, 0), (1, 2)])
    assert pts == [
        ((1, 1, 1), (2, 1, 1), F(1)),
        ((1, 2, 2), (2, 2, 2), F(1)),
    ]


def test_parallelepiped_support_weighted():
    f = zn_indicator(1) - lattice_indicator(((2,),)).scale(2)
    pts = parallelepiped_support(f, [(2,)])
    # t = 1 at x = 2 keeps the denominator q = 2 of the first term
    assert pts == [((1, 1), (2, 1), F(1)), ((1, 2), (2, 2), F(-1))]


def test_parallelepiped_support_lower_rank():
    f = zn_indicator(2)
    assert parallelepiped_support(f, [(1, 1)]) == [((1, 1, 1), (1, 1), F(1))]
    shifted = translate(f, (F(1, 2), 0))
    assert parallelepiped_support(shifted, [(1, 1)]) == []
    # a diagonal line through a finer lattice picks up interior points
    fine = lattice_indicator(((F(1, 2), 0), (0, F(1, 2))))
    pts = parallelepiped_support(fine, [(1, 1)])
    assert pts == [
        ((2, 1, 1), (2, 1), F(1)),
        ((1, 1, 1), (2, 2), F(1)),
    ]


def test_parallelepiped_support_refuses_dependent_generators():
    # refused before any term is looked at, even when no term meets the span
    for f in (TestFunction(2), translate(zn_indicator(2), (F(1, 2), 0))):
        with pytest.raises(SingularMatrix):
            parallelepiped_support(f, [(1, 1), (2, 2)])
    with pytest.raises(ValueError, match="generator dimension mismatch"):
        parallelepiped_support(zn_indicator(2), [(1, 1, 0)])


def test_parallelepiped_support_counts():
    rng = random.Random(108)
    for _ in range(10):
        L = random_lattice(rng, 2)
        f = lattice_indicator(L)
        # generators inside the lattice: integer combinations of the basis
        M = random_lattice(rng, 2)
        gens = [mat_vec(mat(L), col) for col in zip(*M)]
        pts = parallelepiped_support(f, gens)
        assert len(pts) == abs(det(mat(M)))
        for x, _, val in pts:
            assert val == 1 and f.evaluate(_over_den(x)) == 1


# (lattice matrix with the basis as its columns, offset, generators in the
# lattice): r = n and r < n, in dims 2 and 3
BOX_CASES = [
    (((1, 0), (0, 1)), (0, 0), [(2, 0), (0, 3)]),
    (((2, 1), (0, 3)), (F(1, 2), 0), [(2, 0), (2, 3)]),
    (((F(1, 2), 0), (0, F(1, 3))), (0, 0), [(1, 1)]),
    (((2, 0), (1, 1)), (1, 0), [(4, 4)]),
    (((1, 0, 0), (0, 2, 0), (0, 0, 1)), (0, 0, 0), [(1, 2, 1), (0, 2, 2)]),
    (((1, 0, 0), (0, 1, 0), (0, 0, 2)), (0, 1, 0), [(2, 0, 0), (0, 1, 0), (0, 0, 2)]),
]


@pytest.mark.parametrize("case", range(len(BOX_CASES)), ids=lambda i: f"case{i}")
def test_parallelepiped_support_length_matches_box_count(case):
    # perfbench reads len(parallelepiped_support(...)) as its point count
    L, o, gens = BOX_CASES[case]
    f = lattice_indicator(L, offset=o).scale(F(1, 2))
    g = f + lattice_indicator(L).scale(3)
    for h in (f, g):
        brute = support_by_box(h, gens)
        assert brute
        assert len(parallelepiped_support(h, gens)) == len(brute)


@st.composite
def functions_and_generators(draw):
    """A test function in dims 1-3 and r <= n independent generators in
    its periodicity lattice."""
    n = draw(st.integers(1, 3))
    small = st.integers(0, 2)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.sampled_from([1, 2]))
        L = tuple(
            tuple(
                F(draw(st.integers(1, 3)), den) if i == j else
                F(draw(small), den) if j < i else F(0)
                for j in range(n)
            )
            for i in range(n)
        )
        o = tuple(F(draw(st.integers(0, 3)), draw(st.sampled_from([1, 2, 3]))) for _ in range(n))
        c = draw(st.sampled_from([-2, -1, 1, 3]))
        terms.append((c, o, L))
    f = TestFunction(n, tuple(terms))
    Lf = periodicity_lattice(f)
    r = draw(st.integers(1, n))
    gens = [
        mat_vec(Lf, tuple(draw(st.integers(-2, 2)) for _ in range(n))) for _ in range(r)
    ]
    if rank(from_columns(gens)) < r:
        gens = [tuple(Lf[i][j] for i in range(n)) for j in range(r)]
    return f, gens


@given(functions_and_generators())
@settings(max_examples=60, deadline=None)
def test_parallelepiped_support_matches_evaluate(case):
    f, gens = case
    W = from_columns([tuple(F(c) for c in g) for g in gens])
    triples = parallelepiped_support(f, gens)
    for x, t, val in triples:
        x, t = _over_den(x), _over_den(t)
        assert val != 0 and val == f.evaluate(x)
        assert mat_vec(W, t) == x
        assert all(0 < c <= 1 for c in t)
    brute = support_by_box(f, gens)
    if brute is not None:
        assert {_over_den(x): val for x, _, val in triples} == brute
