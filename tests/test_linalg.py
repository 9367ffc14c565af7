import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shintani_kit._linalg import (
    common_denominator,
    coset_representatives,
    det,
    from_columns,
    hnf_with_transform,
    identity,
    integer_det,
    integer_solutions,
    inverse,
    lattice_intersection,
    mat,
    mat_mul,
    mat_vec,
    minimal_multiplier,
    rank,
    rational_kernel,
    solve,
    span_rows,
    vec,
)
from shintani_kit.errors import SingularMatrix, ZeroVector

from helpers import span_coordinates


def _rand_int_matrix(rng, n, m, lo=-6, hi=7):
    return mat([[rng.randrange(lo, hi) for _ in range(m)] for _ in range(n)])


_RATIONALS = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=60),
)


@given(st.lists(st.lists(_RATIONALS, max_size=4), max_size=4))
@example([])
@example([[], [Fraction(1, 6), 4], []])
@settings(max_examples=200, deadline=None)
def test_common_denominator(rows):
    d, nums = common_denominator(rows)
    assert d == lcm(1, *(Fraction(x).denominator for row in rows for x in row))
    assert [len(row) for row in nums] == [len(row) for row in rows]
    for row, nrow in zip(rows, nums):
        for x, y in zip(row, nrow):
            assert type(y) is int and y == x * d


_ENTRIES = st.one_of(
    _RATIONALS,
    st.booleans(),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 60)),
)


@given(st.lists(_ENTRIES, max_size=5))
@settings(max_examples=200, deadline=None)
def test_vec_keeps_fractions_and_converts_the_rest(entries):
    v = vec(entries)
    assert v == tuple(Fraction(x) for x in entries)
    assert all(type(y) is Fraction for y in v)
    assert all(y is x for x, y in zip(entries, v) if type(x) is Fraction)


def test_vec_converts_a_fraction_subclass():
    class Half(Fraction):
        pass

    (x,) = vec([Half(1, 2)])
    assert type(x) is Fraction and x == Fraction(1, 2)


@given(st.lists(st.lists(_ENTRIES, max_size=4), max_size=4))
@settings(max_examples=100, deadline=None)
def test_mat_matches_the_entrywise_build(rows):
    m = mat(rows)
    assert m == tuple(tuple(Fraction(x) for x in row) for row in rows)
    assert all(type(y) is Fraction for row in m for y in row)


def test_det_inverse_solve():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = _rand_int_matrix(rng, n, n)
        if det(a) == 0:
            with pytest.raises(SingularMatrix):
                inverse(a)
            continue
        ai = inverse(a)
        assert mat_mul(a, ai) == identity(n)
        b = vec([rng.randrange(-9, 9) for _ in range(n)])
        x = solve(a, b)
        assert mat_vec(a, x) == b


def test_hnf_properties():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 5)
        a = _rand_int_matrix(rng, n, m)
        h, u = hnf_with_transform(a)
        # a * u = h with u unimodular
        assert mat_mul(a, u) == h
        assert abs(det(u)) == 1
        # lower triangular in the staircase sense: pivots move down
        r = rank(a)
        for j in range(r, m):
            assert all(h[i][j] == 0 for i in range(n))


@given(st.integers(1, 3).flatmap(lambda n: st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=n, max_size=n),
    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
))))
@example(([[2]], [1]))
@example(([[2, 4]], [1]))
@example(([[0, 0], [0, 0]], [0, 1]))
@example(([[1, 2], [2, 4]], [1, 3]))
@settings(max_examples=150, deadline=None)
def test_integer_solutions(ab):
    """One HNF gives a particular solution and the kernel: x0 solves
    a*x = b, each kernel vector solves a*x = 0 and there are m - rank(a)
    of them; when it reports no solution, a brute-force search of a box
    finds none either."""
    a, b = ab
    m = len(a[0])
    sols = integer_solutions(a, b)

    def image(x):
        return [sum(map(mul, row, x)) for row in a]

    if sols is None:
        assert all(image(x) != b for x in product(range(-8, 9), repeat=m))
        return
    x0, kern = sols
    assert image(x0) == b and all(type(x) is int for x in x0)
    for k in kern:
        assert image(k) == [0] * len(a) and all(type(x) is int for x in k)
    assert len(kern) == m - rank(mat(a))


def test_lattice_intersection_membership():
    a = mat([[2, 0], [0, 3]])
    b = mat([[3, 0], [0, 2]])
    c = lattice_intersection(a, b)
    assert abs(det(c)) == 36
    # 6*e1 and 6*e2 generate the intersection
    ci = inverse(c)
    for v in ([6, 0], [0, 6]):
        x = mat_vec(ci, vec(v))
        assert all(xi.denominator == 1 for xi in x)


def test_lattice_intersection_fractional():
    a = mat([[Fraction(1, 2), 0], [0, 1]])
    b = mat([[Fraction(1, 3), 0], [0, 1]])
    c = lattice_intersection(a, b)
    ci = inverse(c)
    x = mat_vec(ci, vec([Fraction(1, 6) * 6, 0]))  # the vector (1, 0)
    assert all(xi.denominator == 1 for xi in x)
    assert abs(det(c)) == 1


def test_coset_representatives_count():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randrange(1, 4)
        while True:
            a = _rand_int_matrix(rng, n, n, -4, 5)
            d = det(a)
            if d != 0 and abs(d) <= 40:
                break
        h, _ = hnf_with_transform(a)
        reps = coset_representatives(h)
        assert len(reps) == abs(d)
        # distinct modulo the lattice
        hi = inverse(h)
        seen = set()
        for r in reps:
            canon = tuple(x - (x.numerator // x.denominator) for x in mat_vec(hi, vec(r)))
            assert canon not in seen
            seen.add(canon)


def test_minimal_multiplier():
    basis = mat([[2, 0], [0, 3]])
    assert minimal_multiplier(vec([1, 0]), basis) == 2
    assert minimal_multiplier(vec([2, 3]), basis) == 1
    assert minimal_multiplier(vec([1, 1]), basis) == 6
    assert minimal_multiplier(vec([Fraction(1, 2), 0]), basis) == 4
    with pytest.raises(ZeroVector):
        minimal_multiplier(vec([0, 0]), basis)


def _minimal_multiplier_by_solve(g, basis) -> Fraction:
    """The lcm of the denominators of g's Fraction coordinates in the basis
    over the gcd of their numerators."""
    coords = solve(basis, g)
    return Fraction(lcm(*(c.denominator for c in coords)), gcd(*(c.numerator for c in coords)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_minimal_multiplier_matches_fraction_solve(data):
    """The integer adjugate route against a Fraction solve, for n = 1..4,
    Fraction entries with mixed denominators and singular bases."""
    n = data.draw(st.integers(1, 4))
    entry = st.fractions(-6, 6, max_denominator=4)
    basis = mat(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n,
                                   max_size=n)))
    g = vec(data.draw(st.lists(entry, min_size=n, max_size=n)))
    if det(basis) == 0:
        with pytest.raises(SingularMatrix):
            minimal_multiplier(g, basis)
    elif not any(g):
        with pytest.raises(ZeroVector):
            minimal_multiplier(g, basis)
    else:
        a = minimal_multiplier(g, basis)
        assert a == _minimal_multiplier_by_solve(g, basis)
        assert all(x.denominator == 1 for x in solve(basis, [a * x for x in g]))


def test_rational_kernel():
    a = mat([[1, 2, 3]])
    kern = rational_kernel(a)
    assert len(kern) == 2
    for v in kern:
        assert sum(ai * vi for ai, vi in zip(a[0], v)) == 0


# --- properties of the shared elimination kernel ------------------------------

small_rational = st.builds(
    Fraction, st.integers(-5, 5), st.integers(1, 3)
)


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    n = draw(st.integers(1, 4)) if rows is None else rows
    m = draw(st.integers(1, 4)) if cols is None else cols
    return mat(draw(st.lists(
        st.lists(small_rational, min_size=m, max_size=m), min_size=n, max_size=n
    )))


@st.composite
def square_with_vector(draw):
    n = draw(st.integers(1, 4))
    a = draw(rational_matrices(n, n))
    b = vec(draw(st.lists(small_rational, min_size=n, max_size=n)))
    return a, b


@given(square_with_vector())
@settings(max_examples=80, deadline=None)
def test_solve_and_inverse_identities(ab):
    a, b = ab
    n = len(a)
    if det(a) == 0:
        with pytest.raises(SingularMatrix):
            solve(a, b)
        with pytest.raises(SingularMatrix):
            inverse(a)
        return
    assert mat_vec(a, solve(a, b)) == b
    assert mat_mul(a, inverse(a)) == identity(n)


@given(rational_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity_and_kernel(a):
    m = len(a[0])
    kern = rational_kernel(a)
    assert rank(a) + len(kern) == m
    assert rank(tuple(zip(*a))) == rank(a)
    for k in kern:
        assert all(x == 0 for x in mat_vec(a, k))
    if kern:
        assert rank(mat(kern)) == len(kern)


@st.composite
def generators_and_points(draw):
    """r <= n generators in Q^n for n in 1..4, sometimes with the last one
    a combination of the others; coordinates c; and a free point w, which
    lies off the span for almost every draw with r < n."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, n))
    gens = [vec(draw(st.lists(small_rational, min_size=n, max_size=n)))
            for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        mix = draw(st.lists(small_rational, min_size=r - 1, max_size=r - 1))
        gens[-1] = vec(sum(m * g[i] for m, g in zip(mix, gens)) for i in range(n))
    c = vec(draw(st.lists(small_rational, min_size=r, max_size=r)))
    w = vec(draw(st.lists(small_rational, min_size=n, max_size=n)))
    return gens, c, w


def _vanishes(ann, x):
    return all(sum(a * b for a, b in zip(k, x)) == 0 for k in ann)


@given(generators_and_points())
@settings(max_examples=150, deadline=None)
def test_span_rows(data):
    """On the integer generator columns W: P W = delta I with delta > 0 and
    ann W = 0, ann with the generators has rank n, and the rows agree
    with the independent reduction of helpers.span_coordinates: on the
    span P recovers the coordinates, and ann vanishes exactly there."""
    gens, c, w = data
    n, r = len(gens[0]), len(gens)
    dw, W = common_denominator(from_columns(gens))
    if rank(from_columns(gens)) < r:
        with pytest.raises(SingularMatrix, match="linearly dependent"):
            span_rows(W)
        return
    ann, P, delta = span_rows(W)
    assert delta > 0 and len(ann) == n - r
    assert mat_mul(mat(P), mat(W)) == tuple(
        tuple(Fraction(delta if i == j else 0) for j in range(r)) for i in range(r)
    )
    assert all(x == 0 for row in mat_mul(mat(ann), mat(W)) for x in row)
    assert rank(mat([*zip(*W), *ann])) == n
    v = mat_vec(from_columns(gens), c)
    assert tuple(y * dw / delta for y in mat_vec(mat(P), v)) == c
    for x in (v, w):
        coords = span_coordinates(gens, x)
        assert _vanishes(ann, x) == (coords is not None)
        if coords is not None:
            assert tuple(y * dw / delta for y in mat_vec(mat(P), x)) == coords


def _leibniz_det(rows):
    """Permutation-sum determinant, sharing no code with _linalg."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_integer_det_matches_rational_det(rows):
    got = integer_det(rows)
    assert isinstance(got, int)
    assert got == _leibniz_det(rows)
    assert det(mat(rows)) == got


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(small_rational, min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_rational_det_matches_leibniz(rows):
    assert det(mat(rows)) == _leibniz_det(mat(rows))


def test_integer_det_swaps_rows_for_zero_pivots():
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert integer_det([[0, 2], [0, 3]]) == 0
