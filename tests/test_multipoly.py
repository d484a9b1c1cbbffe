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


# 3a^2b - b/2 + 1 and a - 2b^2 - 1, built by the validating constructor.
P = MultiPoly(AB, {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 1})
Q = MultiPoly(AB, {(1, 0): 1, (0, 2): -2, (0, 0): -1})


@pytest.mark.parametrize("made, terms", [
    (P + Q, {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 0, (1, 0): 1, (0, 2): -2}),
    (-P, {(2, 1): -3, (0, 1): Fraction(1, 2), (0, 0): -1}),
    (P - Q, {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 2, (1, 0): -1, (0, 2): 2}),
    (P * Q, {(3, 1): 3, (2, 3): -6, (2, 1): -3, (1, 1): Fraction(-1, 2), (0, 3): 1,
             (0, 1): Fraction(1, 2), (1, 0): 1, (0, 2): -2, (0, 0): -1}),
    (P * 2, {(2, 1): 6, (0, 1): Fraction(-1), (0, 0): 2}),
    (P * Fraction(2, 3), {(2, 1): Fraction(2), (0, 1): Fraction(-1, 3), (0, 0): Fraction(2, 3)}),
    (P + 1, {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 2}),
    (P.derivative("a"), {(1, 1): 6}),
    (P.derivative("b"), {(2, 0): 3, (0, 0): Fraction(-1, 2)}),
    (P.extended(("b", "x", "a")), {(1, 0, 2): 3, (1, 0, 0): Fraction(-1, 2), (0, 0, 0): 1}),
])
def test_arithmetic_builds_what_the_validating_constructor_builds(made, terms):
    ref = MultiPoly(made.alphabet, terms)
    assert made.terms == ref.terms
    assert made == ref and hash(made) == hash(ref)
    assert sorted((e, type(c)) for e, c in made.terms.items()) == sorted(
        (e, type(c)) for e, c in ref.terms.items()
    )


def test_arithmetic_drops_cancelled_terms():
    assert (P - P).is_zero() and (P + -P).is_zero()
    assert (P * 0).is_zero() and (P * Fraction(0)).is_zero()
    assert MultiPoly.constant(AB, 5).derivative("a").is_zero()


def test_fraction_scalars_store_ints():
    doubled = Fraction(2) * MultiPoly(AB, {(1, 0): 3, (0, 1): -1})
    assert all(type(c) is int for c in doubled.terms.values())
    halved = Fraction(1, 2) * MultiPoly(AB, {(1, 0): Fraction(4), (0, 1): 2})
    assert all(type(c) is int for c in halved.terms.values())


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(AB, {(1, -1): 1})
    with pytest.raises(ValueError, match="tuple length"):
        MultiPoly(AB, {(1,): 1})
    with pytest.raises(ValueError, match="distinct"):
        MultiPoly(("a", "a"), {(1, 0): 1})


def test_extended_checks_the_target_alphabet():
    with pytest.raises(UnknownSymbol):
        P.extended(("a", "x"))
    with pytest.raises(ValueError, match="distinct"):
        P.extended(("a", "b", "a"))
