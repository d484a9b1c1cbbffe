"""The integer-first coefficient policy: int when integral, Fraction after a
true division, never a float."""

from fractions import Fraction

import pytest

from altrun.grammar import extract_row
from altrun.multipoly import MultiPoly
from altrun.polys import Poly, exact, exact_div, poly_gcd
from altrun.serieslab import Series


def assert_policy(values):
    """Each value is an int, or a Fraction with a denominator above 1."""
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)


def test_exact_normalises():
    assert type(exact(Fraction(4, 2))) is int
    assert exact(Fraction(4, 2)) == 2
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact(True)) is int
    with pytest.raises(TypeError):
        exact(0.5)
    assert exact_div(3, 6) == Fraction(1, 2)
    assert type(exact_div(6, 3)) is int


def test_integral_values_are_stored_as_int():
    assert type(Poly([Fraction(4, 2)]).coeffs[0]) is int
    assert type((Poly([Fraction(1, 2)]) * 2).coeffs[0]) is int
    assert type(Poly.from_terms({2: Fraction(6, 3)}).coeffs[2]) is int
    assert type(Poly([Fraction(1, 2)]).coeffs[0]) is Fraction
    mp = MultiPoly(("a",), {(1,): Fraction(9, 3)})
    assert type(mp.coefficient((1,))) is int


def test_policy_keeps_equality_hash_and_str():
    p, q = Poly([Fraction(2), Fraction(1, 2)]), Poly([2, Fraction(1, 2)])
    assert p == q and hash(p) == hash(q) and str(p) == str(q) == "2 + 1/2*x"


def test_true_division_never_gives_float():
    half = Poly([1, 3]) / 2
    assert half == Poly([Fraction(1, 2), Fraction(3, 2)])
    assert_policy(half.coeffs)
    quot, rem = divmod(Poly([1, 0, 0, 1]), Poly([1, 2]))
    assert quot * Poly([1, 2]) + rem == Poly([1, 0, 0, 1])
    assert_policy(quot.coeffs + rem.coeffs)
    # gcd of non-monic integer polynomials: 2(x+1)(x+3) and 3(x+1)(x-2)
    g = poly_gcd(Poly([6, 8, 2]), Poly([-6, -3, 3]))
    assert g == Poly([1, 1])
    assert_policy(g.coeffs)
    assert_policy(poly_gcd(Poly([2, 3]), Poly([4, 5])).coeffs)


def test_int_series_divide_to_fractions():
    num, den = Series.make([1, 1, 0, 5], 3), Series.make([2, 3, 4, 6], 3)
    quot = num / den
    assert all(type(c) is Fraction for c in quot.coeffs + (1 / den).coeffs)
    assert quot.coeffs[:2] == (Fraction(1, 2), Fraction(-1, 4))
    assert (quot * den).coeffs == num.coeffs


def test_extract_row_with_seed_coefficient_two():
    alphabet = ("a", "b", "c")
    a, b, c = (MultiPoly.variable(alphabet, v) for v in alphabet)
    image = a * (3 * b * b + 4 * b * c + c * c)
    entries = extract_row(image, 2 * a, "b", "c", 2)
    values = [e.constant_term() for e in entries]
    assert values == [Fraction(1, 2), 2, Fraction(3, 2)]
    assert_policy(values)


def test_evaluate_returns_fraction():
    assert type(Poly([1, 2]).evaluate(3)) is Fraction
    assert type(Poly().evaluate(3)) is Fraction
    assert type(MultiPoly(("x",), {(1,): 2}).evaluate({"x": 3})) is Fraction
