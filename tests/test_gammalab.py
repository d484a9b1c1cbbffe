"""Gamma / semi-gamma expansions and the David-Barton machinery."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from altrun import gammalab as gl
from altrun.errors import NotDivisible, NotSymmetric
from altrun.families import eulerian, polyseq, triangle
from altrun.polys import Poly

F = Fraction


def test_gamma_expand_A3():
    form = gl.gamma_expand(Poly([0, 1, 4, 1]), 1, 3)
    assert form.base_degree == 2
    assert form.gammas == (F(1), F(2))
    assert form.is_positive()


def test_gamma_expand_F2_not_positive():
    form = gl.gamma_expand(Poly([0, 1, 1, 1]), 1, 3)
    assert form.gammas == (F(1), F(-1))
    assert not form.is_positive()


def test_gamma_expand_square():
    form = gl.gamma_expand(Poly([1, 2, 1]), 0, 2)
    assert form.gammas == (F(1), F(0))


def test_gamma_expand_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        gl.gamma_expand(Poly([0, 2, 12, 10]), 1, 3)


def test_semi_gamma_F3_over_x():
    form = gl.semi_gamma_expand(Poly([1, 3, 7, 3, 1]), 0, 4)
    assert (form.nu, form.lambdas) == (0, (F(1), F(3), F(5)))


def test_semi_gamma_odd_cube():
    form = gl.semi_gamma_expand(Poly([1, 3, 3, 1]), 0, 3)
    assert (form.nu, form.lambdas) == (1, (F(1), F(2)))


def test_semi_gamma_constant():
    form = gl.semi_gamma_expand(Poly([1]), 0, 0)
    assert (form.nu, form.lambdas) == (0, (F(1),))


def test_gamma_to_lambda_examples():
    assert gl.gamma_to_lambda(gl.GammaForm(2, (F(1), F(0)))).lambdas == (F(1), F(2))
    assert gl.gamma_to_lambda(gl.GammaForm(2, (F(1), F(-1)))).lambdas == (F(1), F(1))
    zero = gl.gamma_to_lambda(gl.GammaForm(4, (F(0), F(0), F(0))))
    assert zero.lambdas == (F(0), F(0), F(0))


def test_split_even_odd():
    g1, g2 = gl.split_even_odd(Poly([1, 3, 7, 3, 1]), 0)
    assert g1 == Poly([1, 7, 1])
    assert g2 == Poly([3, 3])

    g1, g2 = gl.split_even_odd(Poly([1, 0, 1]), 0)
    assert g1 == Poly([1, 1])
    assert g2 == Poly.zero()

    g1, g2 = gl.split_even_odd(Poly([1, 3, 3, 1]), 1)  # quotient (1+x)^2
    assert g1 == Poly([1, 1])
    assert g2 == Poly([2])

    with pytest.raises(NotDivisible):
        gl.split_even_odd(Poly([1, 0, 1]), 1)


def test_split_reassembles():
    p = Poly([1, 3, 7, 3, 1])
    g1, g2 = gl.split_even_odd(p, 0)
    assert g1.compose(Poly([0, 0, 1])) + Poly.x() * g2.compose(Poly([0, 0, 1])) == p


def test_david_barton_assemble_examples():
    a3 = gl.GammaForm(4, (F(0), F(1), F(2)))
    assert gl.david_barton_assemble(a3, 3, 1) == Poly([0, 2, 4])

    b2 = gl.GammaForm(2, (F(1), F(4)))
    assert gl.david_barton_assemble(b2, 2, 0) == Poly([1, 4, 3])

    a2 = gl.GammaForm(3, (F(0), F(1)))
    assert gl.david_barton_assemble(a2, 2, 1) == Poly([0, 2])


def test_identity_check_worked_sample():
    # at t = 1/3: x = 4/5 and both sides evaluate to 8/5
    a2 = eulerian(2, "A")
    r2 = triangle("R", 2).row_poly(2)
    t = F(1, 3)
    x = (1 - t * t) / (1 + t * t)
    assert x == F(4, 5)
    rhs = ((1 + x) / 2) * (1 + t) ** 3 * a2.evaluate((1 - t) / (1 + t))
    assert rhs == F(8, 5) == r2.evaluate(x)
    assert gl.david_barton_identity_check(a2, r2, 2, 1)


def test_identity_check_rejects_mutations():
    a3 = eulerian(3, "A")
    r3 = triangle("R", 3).row_poly(3)
    assert gl.david_barton_identity_check(a3, r3, 3, 1)
    # bump one gamma entry on either side
    mutated_assembly = gl.david_barton_assemble(
        gl.GammaForm(4, (F(0), F(2), F(2))), 3, 1
    )
    assert not gl.david_barton_identity_check(a3, mutated_assembly, 3, 1)
    mutated_m = a3 + Poly.x() * Poly([1, 1]) ** 2
    assert not gl.david_barton_identity_check(mutated_m, r3, 3, 1)


def test_db_range_certificates():
    for n in range(2, 7):
        r_n = triangle("R", n).row_poly(n)
        assert gl.david_barton_identity_check(eulerian(n, "A"), r_n, n, 1)
    bpolys = polyseq("bpoly", 6)
    for n in range(1, 7):
        assert gl.david_barton_identity_check(eulerian(n, "B"), bpolys.poly(n), n, 0)


def _m_bad() -> Poly:
    """A_4 + prod_j (m - m_j) with m_j = (1-t_j)/(1+t_j), t_j = 1/2..1/5.

    The surd identity against R_4 holds exactly at t = 1/2..1/5 and nowhere
    else in (0, 1), so deg R_4 + 1 = 4 sample points cannot tell it from A_4.
    """
    prod = Poly.one()
    for j in range(2, 6):
        t = F(1, j)
        prod = prod * Poly([-(1 - t) / (1 + t), 1])
    return eulerian(4, "A") + prod


def test_identity_check_rejects_m_bad():
    r4 = triangle("R", 4).row_poly(4)
    m_bad = _m_bad()
    assert str(m_bad) == "1/15 + 41/90*x + 568/45*x^2 + 89/10*x^3 + 2*x^4"
    # once accepted by a check that evaluated the identity at t = 1/2..1/5 only
    assert not gl.david_barton_identity_check(m_bad, r4, 4, 1)
    assert gl.david_barton_identity_check(eulerian(4, "A"), r4, 4, 1)


def test_identity_check_rejects_high_degree_m():
    r4 = triangle("R", 4).row_poly(4)
    # deg M = 6 > n + delta = 5
    high = eulerian(4, "A") + Poly.from_terms({6: 1})
    assert not gl.david_barton_identity_check(high, r4, 4, 1)
    with pytest.raises(ValueError):
        gl.david_barton_identity_check(r4, r4, 1, 2)


@st.composite
def _symmetric_polys(draw):
    d = draw(st.integers(0, 10))
    half = draw(
        st.lists(
            st.integers(-8, 8), min_size=d // 2 + 1, max_size=d // 2 + 1
        )
    )
    coeffs = [0] * (d + 1)
    for i, c in enumerate(half):
        coeffs[i] = c
        coeffs[d - i] = c
    return Poly(coeffs), d


@given(_symmetric_polys())
def test_expand_roundtrips(case):
    p, d = case
    form = gl.gamma_expand(p, 0, d)
    assert form.reassemble() == p
    semi = gl.semi_gamma_expand(p, 0, d)
    assert semi.reassemble() == p
    assert gl.gamma_to_lambda(form) == semi


_BASES = (Poly([1, 1]), Poly([1, 2, 1]), Poly([1, 0, 1]))  # 1+x, (1+x)^2, 1+x^2
_RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@given(st.sampled_from(_BASES), st.integers(0, 8), st.data())
def test_basis_coeffs_inverts_basis_sum(base, m, data):
    c = data.draw(st.lists(_RATIONALS, max_size=m + 1))
    p = gl._basis_sum(c, Poly.x(), base, m)
    assert gl._basis_coeffs(p, base, m) == tuple(c) + (0,) * (m + 1 - len(c))


@given(st.integers(0, 11), st.data())
def test_gamma_expand_inverts_reassemble(d, data):
    gammas = tuple(data.draw(st.lists(_RATIONALS, min_size=d // 2 + 1, max_size=d // 2 + 1)))
    p = gl.GammaForm(d, gammas).reassemble()
    assert gl.gamma_expand(p, 0, d).gammas == gammas


@given(st.sampled_from((0, 1)), st.data())
def test_identity_check_decides_random_gamma_vectors(delta, data):
    """(M, N) = (reassembled gamma vector, its David-Barton assembly) is
    accepted, and bumping any one coefficient of either side is rejected."""
    n = data.draw(st.integers(2 * delta, 8))  # n - delta >= (n + delta) // 2
    size = (n + delta) // 2 + 1
    gammas = data.draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    form = gl.GammaForm(n + delta, tuple(gammas))
    m_poly = form.reassemble()
    n_poly = gl.david_barton_assemble(form, n, delta)
    assert gl.david_barton_identity_check(m_poly, n_poly, n, delta)
    for k in range(n + delta + 1):
        bump = Poly.from_terms({k: 1})
        assert not gl.david_barton_identity_check(m_poly + bump, n_poly, n, delta)
        assert not gl.david_barton_identity_check(m_poly, n_poly + bump, n, delta)


def test_david_barton_assemble_entry_past_n_minus_delta():
    # n=3, delta=1: powers of (1+x) run from n-delta = 2 down, so k=3 has none
    row = (F(0), F(1), F(2))
    with pytest.raises(ValueError):
        gl.david_barton_assemble(gl.GammaForm(4, row + (F(5),)), 3, 1)
    padded = gl.david_barton_assemble(gl.GammaForm(4, row + (F(0),)), 3, 1)
    assert padded == gl.david_barton_assemble(gl.GammaForm(4, row), 3, 1)
