import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shintani_kit import cones
from shintani_kit._linalg import (
    columns,
    common_denominator,
    det,
    from_columns,
    identity,
    integer_det,
    inverse,
    mat,
    mat_vec,
    rank,
    vec,
)
from shintani_kit.cones import (
    ConeFunction,
    GLTuple,
    OpenCone,
    _eps_det,
    _exponents,
    _face_row,
    _functionals,
    _perturbed_columns,
    gl_act_cone,
    hill_cone_function,
    hill_eval,
    leading_sign,
    primitive_direction,
)
from shintani_kit.errors import (
    DegenerateTuple,
    GuardTripped,
    ShintaniKitError,
    ZeroVector,
)
from shintani_kit.exact_core import TruncSeries
from shintani_kit.selftest import (
    _rand_gl, _rand_tuple, check_cocycle_condition, check_hill_pointwise,
)

from helpers import span_coordinates

I2 = ((1, 0), (0, 1))
ROT = ((0, -1), (1, 0))


def test_eps_ordering_pins():
    # eps_1 - eps_2 > 0 and 1 - eps_1 > 0
    p = TruncSeries((1, 1), {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    assert leading_sign(p) == 1
    q = TruncSeries((1, 1), {(0, 0): Fraction(1), (1, 0): Fraction(-1)})
    assert leading_sign(q) == 1
    assert leading_sign(TruncSeries((1, 1))) == 0


def test_open_cone_membership():
    c = OpenCone((vec([1, 0]), vec([1, 1])))
    assert c.contains([2, 1])
    assert not c.contains([1, 0])  # boundary ray
    assert not c.contains([0, 1])
    ray = OpenCone((vec([2, 3]),))
    assert ray.contains([4, 6])
    assert not ray.contains([4, 5])
    assert not ray.contains([-2, -3])



def test_points_of_the_wrong_dimension_are_refused():
    cone = OpenCone(((1, 0), (0, 1)))
    kappa = ConeFunction([(Fraction(1), cone)])
    t = GLTuple((I2, ROT))
    for v in ((1,), (1, 1, 5)):
        with pytest.raises(ValueError, match="point dimension mismatch"):
            cone.contains(v)
        with pytest.raises(ValueError, match="point dimension mismatch"):
            kappa.evaluate(v)
        with pytest.raises(ValueError, match="point dimension mismatch"):
            hill_eval(t, v)

def test_primitive_direction():
    assert primitive_direction([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    with pytest.raises(ZeroVector):
        primitive_direction([0, 0])


def test_hill_eval_reference_tuple():
    t = GLTuple((I2, ROT))
    assert hill_eval(t, [0, 1]) == 1
    assert hill_eval(t, [1, 0]) == 0
    assert hill_eval(t, [1, 1]) == 1
    assert hill_eval(t, [-1, 0]) == 0
    assert hill_eval(t, [0, -1]) == 0
    with pytest.raises(ZeroVector):
        hill_eval(t, [0, 0])


def test_hill_eval_identity_tuple_vanishes():
    t = GLTuple((I2, I2))
    rng = random.Random(2)
    for _ in range(50):
        v = [rng.randrange(-9, 10), rng.randrange(-9, 10)]
        if not any(v):
            continue
        assert hill_eval(t, v) == 0


def test_cone_function_reference_tuple():
    cf = hill_cone_function(GLTuple((I2, ROT)))
    gens = sorted(
        tuple(sorted(map(primitive_direction, c.generators)))
        for _, c in cf.terms
    )
    assert gens == [(((0, 1),)), ((0, 1), (1, 0))] or gens == [
        ((0, 1),),
        ((0, 1), (1, 0)),
    ]
    assert all(w == 1 for w, _ in cf.terms)
    assert cf.constant == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_perturbation_caps_never_truncate(n):
    # the caps (n-1,)*n chosen for the perturbed columns must be exact:
    # recomputing with one more degree per eps changes nothing
    rng = random.Random(300 + n)
    for _ in range(5):
        t = _rand_tuple(rng, n)
        cols = _perturbed_columns(t)
        assert cols[0][0].caps == (n - 1,) * n
        wide = [[TruncSeries((n,) * n, e.coeffs) for e in col] for col in cols]
        assert _eps_det(cols).coeffs == _eps_det(wide).coeffs
        for i in range(n):
            assert _functionals(cols, i) == _functionals(wide, i)


@pytest.mark.parametrize("n", [2, 3])
def test_cone_function_matches_eval(n):
    # selftest's hill-pointwise: extraction against hill_eval at 60 points
    # on each of 4 tuples, then the sandwich
    ok, detail = check_hill_pointwise(random.Random(100 + n), 4, 60, (n,))
    assert ok, detail


def test_sandwich_property():
    # strictly inside the unperturbed cone: one unit value; outside the
    # closure: 0 (hill-pointwise with no extraction points)
    ok, detail = check_hill_pointwise(random.Random(31), 3, 0, (2, 3))
    assert ok, detail


def test_cocycle_defect_constant():
    ok, detail = check_cocycle_condition(random.Random(77), 6, (2, 3), samples=25)
    assert ok, detail


def test_equivariance():
    rng = random.Random(19)
    for _ in range(10):
        t = _rand_tuple(rng, 2)
        gamma = _rand_gl(rng, 2)
        sign = 1 if det(gamma) > 0 else -1
        moved = GLTuple(tuple(
            mat([[sum(gamma[i][k] * m[k][j] for k in range(2)) for j in range(2)]
                 for i in range(2)])
            for m in t.matrices))
        ginv = inverse(gamma)
        for _ in range(25):
            v = [rng.randrange(-7, 8), rng.randrange(-7, 8)]
            if not any(v):
                continue
            assert hill_eval(moved, v) == sign * hill_eval(t, mat_vec(ginv, v))


def test_gl_act_cone():
    rng = random.Random(41)
    cf = hill_cone_function(GLTuple((I2, ROT)))
    for _ in range(8):
        gamma = _rand_gl(rng, 2)
        sign = 1 if det(gamma) > 0 else -1
        moved = gl_act_cone(gamma, cf)
        ginv = inverse(gamma)
        for _ in range(20):
            v = [rng.randrange(-9, 10), rng.randrange(-9, 10)]
            if not any(v):
                continue
            assert moved.evaluate(v) == sign * cf.evaluate(mat_vec(ginv, v))


def test_degenerate_tuple_raises():
    with pytest.raises(DegenerateTuple):
        hill_cone_function(GLTuple((I2, I2)))


def test_cone_function_addition_and_scale():
    cf = ConeFunction([(Fraction(2), OpenCone((vec([1, 0]),)))], Fraction(1))
    g = cf.scale(-3)
    assert g.evaluate([1, 0]) == -9
    assert g.evaluate([0, 1]) == -3
    s = cf + g
    assert s.evaluate([1, 0]) == -6


# --- hill_eval against the eps-polynomial route -------------------------------

small_rational = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def _reference_hill_eval(t, v):
    """The cocycle from leading signs of determinants of TruncSeries in the
    eps variables, built from the extraction's perturbed columns."""
    v = vec(v)
    n = t.ambient
    cols = _perturbed_columns(t)
    sigma = leading_sign(_eps_det(cols))
    if sigma == 0:
        raise GuardTripped("perturbed determinant vanished")
    caps = cols[0][0].caps
    for i in range(n):
        v_col = [TruncSeries.constant(caps, x) for x in v]
        replaced = [v_col if j == i else cols[j] for j in range(n)]
        if leading_sign(_eps_det(replaced)) != sigma:
            return 0
    return sigma


@st.composite
def tuples_and_points(draw):
    n = draw(st.integers(1, 4))
    invertible = _square(n, st.integers(-3, 3)).filter(lambda m: det(mat(m)) != 0)
    mats = tuple(mat(draw(invertible)) for _ in range(n))
    basis = draw(st.one_of(
        st.none(), _square(n, small_rational).filter(lambda m: det(mat(m)) != 0)
    ))
    if draw(st.booleans()):
        v = [draw(small_rational) for _ in range(n)]
    else:
        # faces, boundaries and subspans of the unperturbed cone on the
        # alpha_j w_1, where the leading monomials vanish
        w1 = columns(mat(basis) if basis is not None else identity(n))[0]
        u = [mat_vec(alpha, w1) for alpha in mats]
        c = [draw(st.sampled_from([-1, 0, 1, 2])) for _ in range(n)]
        v = [sum(cj * uj[k] for cj, uj in zip(c, u)) for k in range(n)]
    assume(any(v))
    return GLTuple(mats, basis), v


@given(tuples_and_points())
@settings(max_examples=120, deadline=None)
def test_hill_eval_matches_eps_polynomial_route(data):
    t, v = data
    assert hill_eval(t, v) == _reference_hill_eval(t, v)


def _unchecked_tuple(mats):
    # GLTuple refuses singular entries, and with invertible ones the
    # perturbed determinant never vanishes, so the guard is reached only
    # past that validation
    t = object.__new__(GLTuple)
    object.__setattr__(t, "matrices", tuple(mat(m) for m in mats))
    object.__setattr__(t, "basis", identity(len(mats)))
    return t


def test_hill_eval_refusals():
    t = GLTuple((I2, ROT))
    with pytest.raises(ZeroVector, match="evaluation point must be nonzero"):
        hill_eval(t, [0, Fraction(0)])
    with pytest.raises(ShintaniKitError, match="tuple length must equal the ambient dimension"):
        hill_eval(GLTuple((I2,)), [1, 0])
    flat = _unchecked_tuple([[[1, 1], [1, 1]], [[2, 1], [2, 1]]])
    for route in (hill_eval, _reference_hill_eval):
        with pytest.raises(GuardTripped, match="perturbed determinant vanished"):
            route(flat, [1, 2])


# --- hill_eval's face rows -------------------------------------------------------


@given(tuples_and_points())
@settings(max_examples=120, deadline=None)
def test_face_rows_are_adjugate_rows(data):
    # r_(i,e) . v is the determinant of the integer columns cols[j][e_j]
    # with column i replaced by v, at the point's integers and at each unit
    # vector (which pins every entry of the row)
    t, v = data
    hill_eval(t, v)
    n, cols = t.ambient, t._integer_columns
    points = [common_denominator([vec(v)])[1][0]]
    points += [[int(r == k) for k in range(n)] for r in range(n)]
    for i, rows in enumerate(t._face_rows):
        for row, e in zip(rows, _exponents(n, i)):
            for w in points:
                replaced = [w if j == i else col[k] for j, (col, k) in enumerate(zip(cols, e))]
                assert sum(a * b for a, b in zip(row, w)) == integer_det(replaced)


def test_face_rows_are_built_once_and_lazily(monkeypatch):
    built = []

    def counted(cols, i, e):
        built.append((i, e))
        return _face_row(cols, i, e)

    monkeypatch.setattr(cones, "_face_row", counted)
    rng = random.Random(41)
    for n in (2, 3):
        t = _rand_tuple(rng, n)
        u = [mat_vec(alpha, [1] + [0] * (n - 1)) for alpha in t.matrices]
        # a point strictly inside the cone on the alpha_j w_1 is off every
        # face: it needs the e = 0 row of each column and nothing more
        hill_eval(t, [sum(x) for x in zip(*u)])
        assert built == [(i, (0,) * n) for i in range(n)]
        # then 100 points, half of them on faces and subspans of that cone
        for k in range(100):
            if k % 2:
                c = [rng.choice([-1, 0, 1, 2]) for _ in range(n)]
                v = [sum(cj * uj[r] for cj, uj in zip(c, u)) for r in range(n)]
            else:
                v = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
            if any(v):
                hill_eval(t, v)
        assert len(built) == len(set(built)) > n
        for i, rows in enumerate(t._face_rows):
            order = _exponents(n, i)[:len(rows)]
            assert rows == [_face_row(t._integer_columns, i, e) for e in order]
        built.clear()


def test_perturbed_columns_hold_ints_where_integral():
    # w_1 = (1, 0) is integral and w_2 = (1/2, 1) is not: every eps_j^0
    # coefficient is an int, and every coefficient is (alpha_j w_(i+1))_r
    t = GLTuple((ROT, ((2, 1), (1, 1))), ((1, Fraction(1, 2)), (0, 1)))
    w = columns(t.basis)
    for j, col in enumerate(_perturbed_columns(t)):
        for r, entry in enumerate(col):
            for e, c in entry.coeffs.items():
                assert c == mat_vec(t.matrices[j], w[e[j]])[r]
                assert type(c) is int or e[j] == 1


# --- OpenCone.contains against span coordinates -------------------------------


@st.composite
def cones_and_points(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, n))
    gens = [vec(draw(st.lists(small_rational, min_size=n, max_size=n))) for _ in range(d)]
    assume(rank(from_columns(gens)) == d)
    c = [draw(st.sampled_from([Fraction(-1), 0, Fraction(1, 2), 1, 2])) for _ in range(d)]
    v = [sum(cj * g[k] for cj, g in zip(c, gens)) for k in range(n)]
    if draw(st.booleans()):
        v = [x + draw(small_rational) for x in v]  # mostly off the span
    return gens, v


@given(cones_and_points())
@settings(max_examples=150, deadline=None)
def test_contains_matches_span_coordinates(data):
    gens, v = data
    coords = span_coordinates(gens, v)
    expect = coords is not None and all(x > 0 for x in coords)
    assert OpenCone(tuple(gens)).contains(v) == expect


def test_dependent_generators_are_refused_at_construction():
    # r = n by the determinant, r < n by the Gram determinant, r > n too;
    # membership is never asked
    for gens in (
        ((1, 2), (2, 4)),
        ((1, 0, 2), (0, 1, 1), (1, 1, 3)),
        ((1, 2, 3), (Fraction(1, 2), 1, Fraction(3, 2))),
        ((1, 0, 0), (0, 0, 0)),
        ((0, 0),),
        ((1, 0), (0, 1), (1, 1)),
    ):
        with pytest.raises(ShintaniKitError, match="must be independent"):
            OpenCone(gens)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_construction_refuses_exactly_the_dependent_generators(data):
    n = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(1, n + 1))
    gens = [vec(data.draw(st.lists(small_rational, min_size=n, max_size=n))) for _ in range(r)]
    if r > 1 and data.draw(st.booleans()):
        mix = data.draw(st.lists(small_rational, min_size=r - 1, max_size=r - 1))
        gens[-1] = vec(sum(m * g[i] for m, g in zip(mix, gens)) for i in range(n))
    if rank(from_columns(gens)) < r:
        with pytest.raises(ShintaniKitError, match="must be independent"):
            OpenCone(tuple(gens))
    else:
        assert OpenCone(tuple(gens)).dim == r


positive_rational = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))


@given(cones_and_points(), positive_rational)
@settings(max_examples=100, deadline=None)
def test_contains_ignores_positive_scaling(data, c):
    gens, v = data
    cone = OpenCone(tuple(gens))
    assert cone.contains([c * x for x in v]) == cone.contains(v)


def test_contains_refuses_the_origin():
    for cone in (OpenCone(((1, 0), (1, 1))), OpenCone(((2, 3),))):
        assert not cone.contains([0, Fraction(0)])


@st.composite
def cones_and_inner_points(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, n))
    gens = [vec(draw(st.lists(small_rational, min_size=n, max_size=n))) for _ in range(d)]
    assume(rank(from_columns(gens)) == d)
    c = [draw(positive_rational) for _ in range(d)]
    return gens, [sum(cj * g[k] for cj, g in zip(c, gens)) for k in range(n)]


@given(cones_and_inner_points(), positive_rational)
@settings(max_examples=100, deadline=None)
def test_contains_refuses_negative_multiples_of_inner_points(data, c):
    gens, v = data
    cone = OpenCone(tuple(gens))
    assert cone.contains(v)
    assert not cone.contains([-c * x for x in v])


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_primitive_direction_keeps_a_primitive_vector(v):
    assume(gcd(*v) == 1)
    p = primitive_direction(tuple(v))
    assert p == tuple(v) and all(type(x) is int for x in p)


def test_primitive_direction_refuses_a_fraction_zero():
    with pytest.raises(ZeroVector):
        primitive_direction([0, Fraction(0)])


@given(st.lists(small_rational, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_primitive_direction_is_a_positive_multiple(v):
    assume(any(v))
    p = primitive_direction(v)
    assert all(isinstance(x, int) for x in p) and gcd(*p) == 1
    k = next(j for j, x in enumerate(v) if x)
    scale = p[k] / v[k]
    assert scale > 0
    assert list(p) == [scale * x for x in v]
