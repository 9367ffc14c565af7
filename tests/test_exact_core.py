import itertools
import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani_kit.errors import ZeroConstantTerm
from shintani_kit.exact_core import (
    QuadScalar,
    TruncSeries,
    bernoulli_number,
    bernoulli_polynomial,
    quad_sign,
)

from helpers import PairQuadScalar, pair_quad_sign


def test_bernoulli_small_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    for k in range(3, 30, 2):
        assert bernoulli_number(k) == 0


def test_bernoulli_recurrence_residual():
    # independent restatement of the defining identity
    from math import comb

    for n in range(1, 25):
        acc = sum(comb(n + 1, j) * bernoulli_number(j) for j in range(n + 1))
        assert acc == -(n + 1) * bernoulli_number(n) + (n + 1) * bernoulli_number(n)
        total = sum(comb(n + 1, j) * bernoulli_number(j) for j in range(n + 2))
        # full sum including j = n+1 equals B_{n+1} * C(n+1, n+1) + 0
        assert total == bernoulli_number(n + 1)


def test_bernoulli_polynomial_values():
    assert bernoulli_polynomial(2, Fraction(1, 3)) == Fraction(-1, 18)
    assert bernoulli_polynomial(1, 1) == Fraction(1, 2)
    # difference equation B_k(x+1) - B_k(x) = k x^(k-1)
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randrange(1, 9)
        x = Fraction(rng.randrange(-30, 30), rng.randrange(1, 12))
        lhs = bernoulli_polynomial(k, x + 1) - bernoulli_polynomial(k, x)
        assert lhs == k * x ** (k - 1)


def _decimal_sign(a: Fraction, b: Fraction, D: int) -> int:
    getcontext().prec = 60
    val = (
        Decimal(a.numerator) / Decimal(a.denominator)
        + Decimal(b.numerator) / Decimal(b.denominator) * Decimal(D).sqrt()
    )
    if val > 0:
        return 1
    if val < 0:
        return -1
    return 0


def test_quad_sign_pinned_cases():
    assert quad_sign(QuadScalar(-2, 1, 5)) == 1
    assert quad_sign(QuadScalar(2, -1, 3)) == 1
    assert quad_sign(QuadScalar(0, 0, 5)) == 0
    assert quad_sign(QuadScalar(Fraction(1, 2), Fraction(-1, 5), 2)) == 1


def test_quad_sign_against_decimal_oracle():
    rng = random.Random(7)
    for _ in range(1000):
        D = rng.choice([2, 3, 5, 7, 13, 21, 29])
        a = Fraction(rng.randrange(-400, 400), rng.randrange(1, 40))
        b = Fraction(rng.randrange(-400, 400), rng.randrange(1, 40))
        x = QuadScalar(a, b, D)
        assert quad_sign(x) == _decimal_sign(a, b, D)


def test_quad_arithmetic():
    x = QuadScalar(1, 1, 5)
    y = QuadScalar(2, -3, 5)
    assert (x * y).a == 2 - 15
    assert (x * y).b == -3 + 2
    assert x * x.inverse() == 1
    assert (x / y) * y == x
    assert x.conjugate().conjugate() == x
    assert (x + Fraction(1, 2)).a == Fraction(3, 2)
    assert (2 * x).b == 2


def test_series_invert_roundtrip():
    rng = random.Random(3)
    caps = (4, 3)
    for _ in range(20):
        coeffs = {}
        for e0 in range(caps[0] + 1):
            for e1 in range(caps[1] + 1):
                if rng.random() < 0.4:
                    coeffs[(e0, e1)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        coeffs[(0, 0)] = Fraction(rng.choice([1, 2, -3, 5]))
        s = TruncSeries(caps, coeffs)
        prod = s * s.invert()
        assert prod.coeff((0, 0)) == 1
        assert all(c == 0 for e, c in prod.coeffs.items() if e != (0, 0))


RADICANDS = [2, 3, 5, 13, 15, 43]
quad_rational = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@st.composite
def operand_pairs(draw, D: int, quad: bool):
    """(operand, reference operand): an int, a Fraction, or a QuadScalar
    beside the Fraction-pair scalar of the same value, rational or not."""
    kind = "quad" if quad else draw(st.sampled_from(["int", "fraction", "quad"]))
    if kind == "int":
        n = draw(st.integers(-30, 30))
        return n, n
    if kind == "fraction":
        x = draw(quad_rational)
        return x, x
    a = draw(quad_rational)
    b = draw(st.one_of(st.just(Fraction(0)), quad_rational))
    return QuadScalar(a, b, D), PairQuadScalar(a, b, D)


def _lowest_terms(x: QuadScalar) -> None:
    assert all(type(v) is int for v in (x.A, x.B, x.q, x.D))
    assert x.q > 0 and math.gcd(x.A, x.B, x.q) == 1


def _agrees(got, want) -> None:
    """got is the value the reference computed as want, QuadScalar for a
    Fraction-pair scalar, and QuadScalar results are in lowest terms."""
    if isinstance(want, PairQuadScalar):
        assert isinstance(got, QuadScalar)
        _lowest_terms(got)
        assert (got.a, got.b, got.D) == (want.a, want.b, want.D)
        assert hash(got) == hash(want)
    else:
        assert type(got) is type(want) and got == want


def _both(op, *args):
    """op on the operands and on the reference operands, or the exception
    type each raised."""
    out = []
    for side in (0, 1):
        try:
            out.append(op(*(a[side] for a in args)))
        except ZeroDivisionError as exc:
            out.append(type(exc))
    return out


@given(st.data(), st.sampled_from(RADICANDS))
@settings(max_examples=300, deadline=None)
def test_quad_scalar_matches_fraction_pair_reference(data, D):
    x = data.draw(operand_pairs(D, quad=True))
    y = data.draw(operand_pairs(D, quad=False))
    _lowest_terms(x[0])
    for op in (
        lambda u, v: u + v, lambda u, v: v + u, lambda u, v: u - v, lambda u, v: v - u,
        lambda u, v: u * v, lambda u, v: v * u, lambda u, v: u / v, lambda u, v: v / u,
    ):
        got, want = _both(op, x, y)
        if isinstance(want, type):
            assert got is want
        else:
            _agrees(got, want)
    for op in (lambda u: -u, lambda u: u.conjugate(), lambda u: u.inverse()):
        got, want = _both(op, x)
        if isinstance(want, type):
            assert got is want
        else:
            _agrees(got, want)
    new, old = x
    assert (new == y[0]) == (old == y[1]) and (y[0] == new) == (y[1] == old)
    assert hash(new) == hash(old)
    if not old.b:
        assert hash(new) == hash(old.a) and new == old.a
    assert bool(new) == bool(old)
    assert quad_sign(new) == pair_quad_sign(old)
    assert new.rational_part() == old.rational_part()
    assert type(new.rational_part()) is Fraction


small_fraction = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
unit_fraction = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))


@st.composite
def invertible_series(draw):
    """1-3 variables, caps <= 4, Fraction or QuadScalar (D = 2, 5)
    coefficients, nonzero constant term."""
    caps = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    D = draw(st.sampled_from([None, 2, 5]))

    def scalar(a):
        if D is None:
            return draw(a)
        return QuadScalar(draw(a), draw(small_fraction), D)

    box = list(itertools.product(*(range(cap + 1) for cap in caps)))
    keys = draw(st.lists(st.sampled_from(box[1:]), unique=True)) if len(box) > 1 else []
    coeffs = {e: scalar(small_fraction) for e in keys}
    coeffs[box[0]] = scalar(unit_fraction)
    return TruncSeries(caps, coeffs)


@given(invertible_series())
@settings(max_examples=80, deadline=None)
def test_series_invert_is_exact(s):
    prod = s * s.invert()
    assert prod.coeff(tuple(0 for _ in s.caps)) == 1
    assert all(c == 0 for e, c in prod.coeffs.items() if any(e))


def test_series_invert_requires_unit():
    s = TruncSeries((3,), {(1,): Fraction(1)})
    with pytest.raises(ZeroConstantTerm):
        s.invert()


def test_series_mul_respects_caps():
    s = TruncSeries((2,), {(2,): Fraction(1)})
    assert (s * s).coeffs == {}
