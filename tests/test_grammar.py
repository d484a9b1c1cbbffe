"""Grammar parsing, the formal derivative, and row extraction."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from altrun import grammar as gr
from altrun.errors import NotOfExpectedShape, UnknownSymbol
from altrun.families import triangle
from altrun.multipoly import MultiPoly
from altrun.polys import Poly


QRUN = gr.named_grammar("qrun")
PLATEAU = gr.named_grammar("plateau")
HALFGAMMA = gr.named_grammar("halfgamma")
UPDOWN = gr.named_grammar("updown")


def mono(g, text):
    return gr.parse_polynomial(text, g.alphabet)


BUILT_IN_ALPHABETS = {
    "updown": ("a", "b", "c"),
    "doubled": ("a", "b", "c"),
    "qrun": ("a", "q", "b", "c"),
    "plateau": ("x", "y", "z"),
    "gammavec": ("x", "a", "b"),
    "halfgamma": ("x", "u", "v"),
}


def test_parse_grammar_alphabet_and_constants():
    # letters in order of first appearance, left-hand sides included
    alphabets = {name: gr.named_grammar(name).alphabet for name in gr.GRAMMAR_TEXTS}
    assert alphabets == BUILT_IN_ALPHABETS
    assert "q" not in QRUN.rules
    assert QRUN.rules["b"] == mono(QRUN, "b*c")


def test_parse_negative_coefficients():
    g3 = gr.named_grammar("gammavec")
    assert g3.rules["a"] == mono(g3, "a*b^2 - 2*a^2")


# Everything but integers, letters, parentheses, + - * and ^ by an integer
# literal is refused, as are inputs past the limits of Python's parser.
UNPARSABLE = (
    "a^b",
    "a + ",
    "__import__('os').system('true')",
    "a.b",
    "a[0]",
    "a < b",
    "a and b",
    "a if b else c",
    "lambda: a",
    "1.5*a",
    "a/b",
    "a^-1",
    "a^2^2",
    "(" * 300 + "a" + ")" * 300,
    "+".join(["a"] * 20000),
)


def test_parse_errors():
    for text in UNPARSABLE:
        with pytest.raises(ValueError):
            gr.parse_polynomial(text, ("a", "b", "c"))
    for text in ("a=b", "if->a", "a->b/c"):
        with pytest.raises(ValueError):
            gr.Grammar.parse(text)


def test_parse_rejects_a_repeated_rule():
    with pytest.raises(ValueError, match="letter 'a' has more than one rule"):
        gr.Grammar.parse("a->a*b; a->b")


def test_parse_long_flat_sum_and_signs():
    a = MultiPoly.variable(("a",), "a")
    assert gr.parse_polynomial("+".join(["a"] * 2000), ("a",)) == 2000 * a
    assert gr.parse_polynomial("2*-a", ("a",)) == -2 * a
    assert gr.parse_polynomial("--a", ("a",)) == a


def test_apply_first_derivatives():
    da = QRUN.derive(QRUN.letter("a"))
    assert da == mono(QRUN, "q*a*b")
    d2a = QRUN.derive(da)
    assert d2a == mono(QRUN, "a*(q^2*b^2 + q*b*c)")


def test_derivative_of_constant_is_zero():
    one = MultiPoly.constant(HALFGAMMA.alphabet, 1)
    assert HALFGAMMA.derive(one).is_zero()


def test_unknown_symbol():
    foreign = MultiPoly.variable(("w",), "w")
    with pytest.raises(UnknownSymbol):
        QRUN.derive(foreign)


def test_iterate_plateau_grammar():
    image = PLATEAU.iterate(PLATEAU.letter("x"), 2)
    assert image == mono(PLATEAU, "x*(y^3*z + y^2*z^2 + y*z^3)")


def test_iterate_zero_times():
    seed = UPDOWN.letter("a") ** 2
    assert UPDOWN.iterate(seed, 0) == seed


def test_iterate_qrun_specialized_at_q_one_matches_T():
    image = QRUN.iterate(QRUN.letter("a"), 3)
    at_q1 = image.substitute({"q": 1}, ("a", "b", "c"))
    entries = gr.entries_as_fractions(gr.extract_row(at_q1, "a", "b", "c", 3))
    assert entries == [0, 1, 3, 2]


def test_extract_R3q_row():
    image = QRUN.iterate(QRUN.letter("a"), 3)
    q = Poly.x()
    row = gr.entries_as_polys(gr.extract_row(image, "a", "b", "c", 3), "q")
    assert row == [Poly.zero(), q, 3 * q * q, q + q**3]


def test_extract_trivial_seed():
    entries = gr.extract_row(QRUN.letter("a"), "a", "b", "c", 0)
    assert gr.entries_as_fractions(entries) == [1]


def test_extract_a_squared_row():
    image = UPDOWN.iterate(UPDOWN.letter("a") ** 2, 2)
    entries = gr.entries_as_fractions(
        gr.extract_row(image, UPDOWN.letter("a") ** 2, "b", "c", 2)
    )
    assert entries == [0, 2, 4]


def test_extract_shape_errors():
    image = QRUN.iterate(QRUN.letter("a"), 2)
    with pytest.raises(NotOfExpectedShape):
        gr.extract_row(image, "a", "b", "c", 1)  # wrong homogeneity degree
    with pytest.raises(NotOfExpectedShape):
        gr.extract_row(image, "b", "a", "c", 2)  # not divisible by seed b


_small = st.lists(
    st.tuples(
        st.tuples(
            st.integers(0, 2), st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)
        ),
        st.integers(-3, 3),
    ),
    max_size=4,
).map(lambda items: MultiPoly(QRUN.alphabet, dict(items)))


@given(p=_small, r=_small)
def test_leibniz_rule(p, r):
    lhs = QRUN.derive(p * r)
    rhs = QRUN.derive(p) * r + p * QRUN.derive(r)
    assert lhs == rhs


@given(p=_small, r=_small, alpha=st.integers(-3, 3), beta=st.integers(-3, 3))
def test_linearity(p, r, alpha, beta):
    lhs = QRUN.derive(alpha * p + beta * r)
    rhs = alpha * QRUN.derive(p) + beta * QRUN.derive(r)
    assert lhs == rhs


def test_updown_grammar_small():
    assert gr.entries_as_fractions(
        gr.extract_row(UPDOWN.iterate(UPDOWN.letter("a"), 3), "a", "b", "c", 3)
    ) == [Fraction(v) for v in triangle("T", 3).row(3)]
