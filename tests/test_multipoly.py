"""Sparse multivariate polynomial behaviour."""

from fractions import Fraction

import pytest

from altrun.errors import UnknownSymbol
from altrun.multipoly import MultiPoly
from altrun.polys import Poly

AB = ("a", "b")


def var(name, alphabet=AB):
    return MultiPoly.variable(alphabet, name)


def test_arithmetic_and_zero_pruning():
    a, b = var("a"), var("b")
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    assert (p - p).is_zero()
    assert not (p - p).terms


def test_pow_and_constants():
    a = var("a")
    assert (2 * a + 1) ** 2 == 4 * a * a + 4 * a + 1


def test_substitute_morphism():
    # the gamma-grammar change of letters: a = y*z, b = y + z
    target = ("y", "z")
    y, z = var("y", target), var("z", target)
    src = MultiPoly.variable(("a", "b"), "a") * MultiPoly.variable(("a", "b"), "b")
    image = src.substitute({"a": y * z, "b": y + z}, target)
    assert image == y * y * z + y * z * z


def test_substitute_constant_image():
    a, b = var("a"), var("b")
    p = a * a * b
    assert p.substitute({"a": Fraction(1, 2)}, AB) == Fraction(1, 4) * b


def test_evaluate():
    a, b = var("a"), var("b")
    p = a * b + 2 * b
    assert p.evaluate({"a": 3, "b": Fraction(1, 2)}) == Fraction(5, 2)
    with pytest.raises(UnknownSymbol):
        p.evaluate({"a": 1})


def test_as_poly_roundtrip():
    p = Poly([0, 2, 0, 5])
    mp = MultiPoly(("x", "q"), {(1, 0): 2, (3, 0): 5})
    assert mp.as_poly("x") == p
    with pytest.raises(ValueError):
        (mp * MultiPoly.variable(("x", "q"), "q")).as_poly("x")


def test_derivative():
    a, b = var("a"), var("b")
    p = a * a * b + 3 * b
    assert p.derivative("a") == 2 * a * b
    assert p.derivative("b") == a * a + 3


def test_str_format():
    x = MultiPoly.variable(("x",), "x")
    assert str(2 * x + 4 * x * x) == "2*x + 4*x^2"
    assert str(MultiPoly.zero(("x",))) == "0"
    a, b = var("a"), var("b")
    assert str(a * b - 2 * a * a) == "a*b - 2*a^2"


def test_unknown_variable():
    with pytest.raises(UnknownSymbol):
        MultiPoly.variable(AB, "z")


def test_extended_alphabet():
    a = var("a")
    wide = a.extended(("a", "b", "c"))
    assert wide.alphabet == ("a", "b", "c")
