"""Rational functions and quadratic extensions."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from altrun.errors import DiscriminantMismatch
from altrun.fieldext import QuadExt, RatFunc
from altrun.polys import Poly

# rho^2 = 1 - x^2
DISC = RatFunc(Poly([1, 0, -1]))


def test_canonical_form():
    # (2x + 2) / (4x^2 - 4) reduces with a monic denominator
    f = RatFunc(Poly([2, 2]), Poly([-4, 0, 4]))
    assert f.num == Poly([Fraction(1, 2)])
    assert f.den == Poly([-1, 1])
    assert f == RatFunc(Poly([1]), Poly([-2, 2]))


@pytest.mark.parametrize(
    "c, num",
    [
        (3, Poly([Fraction(2, 3), 0, Fraction(-1, 3), 2])),
        (Fraction(-2, 3), Poly([-3, 0, Fraction(3, 2), -9])),
    ],
)
def test_constant_denominator_is_canonical(c, num):
    p = Poly([2, 0, -1, 6])
    for f in (RatFunc(p, c), RatFunc(p) / c, RatFunc(p, Poly([c]))):
        assert (f.num, f.den) == (num, Poly.one())


def test_scalar_multiple_keeps_the_canonical_form():
    f = RatFunc(Poly([2, 2]), Poly([-4, 0, 4]))
    for c in (3, Fraction(-2, 5)):
        g = f * c
        assert (g.num, g.den) == (f.num * c, f.den)
        assert g == RatFunc(f.num * c, f.den) == c * f
    assert f * 0 == RatFunc(0)
    assert (-f).num == -f.num and (-f).den == f.den


def test_field_operations():
    x = RatFunc.x()
    f = (1 - x) / (1 + x)
    g = (1 + x) / (1 - x)
    assert f * g == RatFunc(1)
    assert f + g == (2 + 2 * x * x) / (1 - x * x)
    assert 1 / f == g


def test_derivative_quotient_rule():
    x = RatFunc.x()
    f = 1 / (1 - x)
    assert f.derivative() == 1 / ((1 - x) * (1 - x))


def test_evaluate():
    f = RatFunc(Poly([0, 1]), Poly([1, 1]))
    assert f.evaluate(1) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        f.evaluate(-1)


_rf = st.tuples(
    st.lists(st.integers(-4, 4), min_size=0, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
).filter(lambda t: any(c != 0 for c in t[1])).map(
    lambda t: RatFunc(Poly(t[0]), Poly(t[1]))
)


@given(a=_rf, b=_rf)
def test_conjugate_norm_identity(a, b):
    e = QuadExt(a, b, DISC)
    product = e * e.conjugate()
    assert product.rad.is_zero()
    assert product.base == a * a - b * b * DISC


@given(a=_rf, b=_rf)
def test_inverse(a, b):
    e = QuadExt(a, b, DISC)
    if e.norm().is_zero():
        return
    assert e * e.inverse() == QuadExt(1, 0, DISC)


def test_radical_squares_to_discriminant():
    rho = QuadExt.radical(DISC)
    sq = rho * rho
    assert sq.rad.is_zero()
    assert sq.base == DISC


def test_discriminant_mixing_rejected():
    rho = QuadExt.radical(DISC)
    w = QuadExt.radical(RatFunc(Poly([1, -1]), Poly([1, 1])))
    with pytest.raises(DiscriminantMismatch):
        rho + w


def test_derivative_of_r():
    # r^2 = (1+x)/(1-x) implies r' = r/(1-x^2)
    disc = RatFunc(Poly([1, 1]), Poly([1, -1]))
    r = QuadExt.radical(disc)
    dr = r.derivative()
    assert dr.base.is_zero()
    assert dr.rad == 1 / RatFunc(Poly([1, 0, -1]))
