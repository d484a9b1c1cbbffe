"""Dense polynomial arithmetic, exact division, window symmetry, and the
operators every exact type derives from `ExactRing`."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from altrun.errors import NotDivisible, SupportOutOfRange, ZeroPolynomial
from altrun.families import triangle
from altrun.fieldext import QuadExt, RatFunc
from altrun.multipoly import MultiPoly
from altrun.polys import (
    Poly,
    divide_exact,
    is_symmetric,
    poly_gcd,
    root_multiplicity,
)
from altrun.serieslab import Series


def test_mul_binomial():
    one_x = Poly([1, 1])
    assert one_x * one_x == Poly([1, 2, 1])


def test_derivative():
    assert Poly([0, 2, 12, 10]).derivative() == Poly([2, 24, 30])


def test_evaluate_R4_at_minus_one():
    r4 = triangle("R", 4).row_poly(4)
    assert r4 == Poly([0, 2, 12, 10])
    assert r4.evaluate(-1) == 0


def test_divide_exact_c2():
    assert divide_exact(Poly([0, 1, 4, 3]), Poly([1, 1])) == Poly([0, 1, 3])


def test_divide_exact_monomial():
    assert divide_exact(Poly([0, 0, 1]), Poly([0, 1])) == Poly([0, 1])


def test_divide_exact_remainder_raises():
    with pytest.raises(NotDivisible):
        divide_exact(Poly([1, 0, 1]), Poly([1, 1]))


def test_root_multiplicity_square():
    assert root_multiplicity(Poly([1, 2, 1]), -1) == 2


@pytest.mark.parametrize("n, expected", [(4, 1), (7, 2)])
def test_root_multiplicity_R_rows(n, expected):
    assert root_multiplicity(triangle("R", n).row_poly(n), Fraction(-1)) == expected


def test_root_multiplicity_zero_poly():
    with pytest.raises(ZeroPolynomial):
        root_multiplicity(Poly(), 1)


def test_is_symmetric_F4():
    f4 = Poly([0, 1, 7, 29, 31, 29, 7, 1])
    assert is_symmetric(f4, 1, 7)


def test_is_symmetric_constant():
    assert is_symmetric(Poly([1]), 0, 0)


def test_is_symmetric_R4_false():
    assert not is_symmetric(Poly([0, 2, 12, 10]), 1, 3)


def test_is_symmetric_support_error():
    with pytest.raises(SupportOutOfRange):
        is_symmetric(Poly([1, 1]), 1, 2)


def test_printing():
    assert str(Poly([0, 2, 12, 10])) == "2*x + 12*x^2 + 10*x^3"
    assert str(Poly([0, 1, -1, 3])) == "x - x^2 + 3*x^3"
    assert str(Poly()) == "0"
    assert str(Poly([Fraction(1, 2), 0, 1])) == "1/2 + x^2"
    assert Poly([0, 1]).to_str("q") == "q"


_XY = ("x", "y")
_DISC = RatFunc(Poly([1, 0, -1]))  # rho^2 = 1 - x^2
# Two elements of each exact type, for the operators derived in ExactRing.
EXACT_PAIRS = {
    "Poly": (Poly([1, 2]), Poly([0, 3, -1])),
    "MultiPoly": (
        MultiPoly.variable(_XY, "x"),
        MultiPoly(_XY, {(1, 1): 2, (0, 2): Fraction(1, 3), (0, 0): -1}),
    ),
    "RatFunc": (RatFunc(Poly([1, 1]), Poly([1, -1])), RatFunc.x()),
    "QuadExt": (
        QuadExt(RatFunc.x(), 1, _DISC),
        QuadExt(1, RatFunc(Poly([0, 2]), Poly([3, 1])), _DISC),
    ),
    "Series": (
        Series.make([Fraction(1), Fraction(2)], 4),
        Series.make([Fraction(0), Fraction(1, 3), Fraction(-1)], 4),
    ),
}


@pytest.mark.parametrize("c", [2, Fraction(1, 2)])
@pytest.mark.parametrize("kind", sorted(EXACT_PAIRS))
def test_exact_ring_derived_operators(kind, c):
    a, b = EXACT_PAIRS[kind]
    assert a - b == a + (-b)
    assert c - a == -(a - c)
    assert c + a == a + c
    assert c * a == a * c
    with pytest.raises(FrozenInstanceError if kind == "Series" else AttributeError):
        a.tag = 1


@pytest.mark.parametrize(
    "kind, foreign",
    [(kind, foreign) for kind in sorted(EXACT_PAIRS) for foreign in ("a", None)]
    + [("Poly", 3)],  # Q[x] has no inverse of x
)
def test_reflected_division_by_a_foreign_operand_is_a_type_error(kind, foreign):
    a, _ = EXACT_PAIRS[kind]
    with pytest.raises(TypeError):
        foreign / a


@pytest.mark.parametrize("foreign", ["a", None, 1.5])
def test_divmod_by_a_foreign_operand_is_a_type_error(foreign):
    with pytest.raises(TypeError):
        divmod(Poly.x(), foreign)


def test_compose_and_scale():
    p = Poly([1, 0, 1])  # 1 + x^2
    assert p.compose(Poly([0, 0, 1])) == Poly([1, 0, 0, 0, 1])
    assert Poly([0, 1, 1]).scale_x(2) == Poly([0, 2, 4])


_small_polys = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=0, max_size=6
).map(Poly)


@given(p=_small_polys, d=_small_polys)
def test_exact_division_roundtrip(p, d):
    if d.is_zero():
        return
    assert divide_exact(p * d, d) == p


@given(p=_small_polys, r=st.integers(min_value=-3, max_value=3))
def test_root_multiplicity_matches_derivatives(p, r):
    if p.is_zero():
        return
    m = root_multiplicity(p, r)
    probe = p
    for _ in range(m):
        assert probe.evaluate(r) == 0
        probe = probe.derivative()
    assert probe.evaluate(r) != 0
    # (x - r)^m divides p but (x - r)^(m+1) does not
    linear = Poly([-r, 1])
    divide_exact(p, linear**m)
    with pytest.raises(NotDivisible):
        divide_exact(p, linear ** (m + 1))


@given(p=_small_polys, q=_small_polys)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    divide_exact(p, g)
    divide_exact(q, g)
